"""The scheduler: admission, coalescing, execution, degradation,
concurrent workers, aged priorities, journal compaction, and one state
machine over the admission path.

Cells are stubbed (``build_cells`` is monkeypatched) so these tests
exercise the control plane in milliseconds; the real experiment cells
are covered by the cell-index tests here (a ``point`` job is a cell of a
``fig9`` job) and by the daemon round-trip and service-restart tests.
"""

import json
import os
import shutil
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.experiments.sweep import SweepCell, SweepExecutor
from repro.obs.registry import MetricsRegistry
from repro.serve.jobs import serialize_results
from repro.serve.journal import Journal, read_events, rebuild
from repro.serve.scheduler import JobScheduler, SubmissionRejected


def _ok(value):
    return {"value": value}


def _boom(value):
    raise ValueError(f"cell {value} exploded")


def _fake_cells(spec):
    """One cell per unit of ``seed % 10``; seeds ending in 666 explode."""
    seed = spec.params["seed"]
    fn = _boom if seed % 1000 == 666 else _ok
    return [SweepCell(key=(f"c{i}",), fn=fn, kwargs=dict(value=i))
            for i in range(max(seed % 10, 1))]


def _workload_cells(spec):
    """One cell whose value is the spec's workload, so each workload's
    result bytes are distinguishable in the cache."""
    return [SweepCell(key=("c0",), fn=_ok,
                      kwargs=dict(value=spec.params["workload"]))]


#: per-seed gates for the concurrency tests: a gated cell parks until
#: its seed's event is set, holding its job observably "running"
_GATES: dict[int, threading.Event] = {}


def _gated(seed):
    assert _GATES[seed].wait(timeout=10), f"gate {seed} never released"
    return {"value": seed}


def _gated_cells(spec):
    seed = spec.params["seed"]
    return [SweepCell(key=("c0",), fn=_gated, kwargs=dict(seed=seed))]


@pytest.fixture
def scheduler(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.serve.scheduler.build_cells", _fake_cells)
    journal = Journal(tmp_path / "journal.jsonl")
    sched = JobScheduler(
        journal=journal,
        metrics=MetricsRegistry(enabled=True),
        pool_jobs=1,  # serial: stub cells run in the worker thread
    )
    yield sched
    sched.stop()
    journal.close()


def _wait_done(scheduler, job_id, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = scheduler.get(job_id)
        if record.status not in ("queued", "running"):
            return record
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never finished")


def _run_next(sched):
    """One pass of a worker's loop, on this thread; returns its job."""
    with sched._lock:
        record = sched.jobs[sched._pick_locked()]
        record.status = "running"
        sched._running.add(record.job_id)
    sched.journal.append("job_started", job_id=record.job_id)
    sched._execute(record, None)
    sched._running.discard(record.job_id)
    return record


class TestSubmitAndExecute:
    def test_job_runs_to_done(self, scheduler):
        scheduler.start()
        record = scheduler.submit("point", {"seed": 3})
        assert record.status in ("queued", "running", "done")
        done = _wait_done(scheduler, record.job_id)
        assert done.status == "done"
        assert done.result == {
            "c0": {"value": 0}, "c1": {"value": 1}, "c2": {"value": 2}
        }
        assert done.cells_total == 3

    def test_transitions_are_journaled(self, scheduler):
        scheduler.start()
        record = scheduler.submit("point", {"seed": 1})
        _wait_done(scheduler, record.job_id)
        events = [e["event"] for e in read_events(scheduler.journal.path)]
        assert events == ["job_submitted", "job_started", "job_finished"]

    def test_failing_job_degrades_not_crashes(self, scheduler):
        scheduler.start()
        record = scheduler.submit("point", {"seed": 666})
        done = _wait_done(scheduler, record.job_id)
        assert done.status == "failed"
        assert done.errors["c0"]["kind"] == "exception"
        assert "exploded" in done.errors["c0"]["message"]
        # and the worker loop survives to run the next job
        after = scheduler.submit("point", {"seed": 1})
        assert _wait_done(scheduler, after.job_id).status == "done"


class TestCacheAndCoalescing:
    """The job table is the result cache: a digest with a queued,
    running or ``done`` job is answered by that job."""

    def test_second_identical_submission_is_a_cache_hit(self, scheduler):
        scheduler.start()
        first = scheduler.submit("point", {"seed": 2})
        _wait_done(scheduler, first.job_id)
        second = scheduler.submit("point", {"seed": 2})
        assert second is scheduler.get(first.job_id)
        assert second.status == "done"
        assert second.result == {"c0": {"value": 0}, "c1": {"value": 1}}
        assert list(scheduler.jobs) == [first.job_id]

    def test_a_hit_journals_nothing(self, scheduler):
        scheduler.start()
        first = scheduler.submit("point", {"seed": 2})
        done = _wait_done(scheduler, first.job_id)
        events = len(done.events)
        size = scheduler.journal.size_bytes()
        body = scheduler.admit("point", {"seed": 2})
        assert body == {**done.to_result_dict(), "cached": True}
        # no id minted, no record, no line, no event
        assert scheduler.journal.size_bytes() == size
        assert scheduler.journal.reserve_id() == "j000002"
        assert list(scheduler.jobs) == [first.job_id]
        assert len(done.events) == events

    def test_hits_misses_and_entries_are_counted(self, scheduler):
        scheduler.start()
        first = scheduler.submit("point", {"seed": 2})  # miss
        assert scheduler.submit("point", {"seed": 2}) is first  # miss: pending
        _wait_done(scheduler, first.job_id)
        scheduler.submit("point", {"seed": 2})  # hit
        failed = scheduler.submit("point", {"seed": 666})  # miss
        _wait_done(scheduler, failed.job_id)
        metrics = scheduler.metrics
        assert scheduler.overview()["cache"] == {
            "entries": 1, "hits": 1, "misses": 3, "cell_hits": 0,
        }
        assert metrics.counter_value("serve.cache.misses") == 3.0
        assert metrics.counter_value("serve.cache.hits") == 1.0
        assert metrics.gauge_value("serve.cache.entries") == 1.0

    def test_pending_duplicates_coalesce(self, scheduler):
        # worker NOT started: both submissions sit in the queue
        first = scheduler.submit("point", {"seed": 2})
        second = scheduler.submit("point", {"seed": 2})
        assert second.job_id == first.job_id  # same record, no new work
        assert len(scheduler._queue) == 1
        assert scheduler.admit("point", {"seed": 2}) == {
            "job_id": first.job_id, "status": "queued", "cached": False,
        }

    def test_failed_jobs_are_not_cached(self, scheduler):
        scheduler.start()
        first = scheduler.submit("point", {"seed": 666})
        _wait_done(scheduler, first.job_id)
        second = scheduler.submit("point", {"seed": 666})
        assert second.job_id != first.job_id  # re-admitted, will re-run
        _wait_done(scheduler, second.job_id)

    def test_a_failing_job_frees_its_digest_in_the_lock_hold_that_fails_it(
        self, scheduler
    ):
        """No worker runs: the failure is made final by hand, and a
        resubmission on the same thread right after it must be new work,
        not a coalesce onto the failed job."""
        first = scheduler.submit("point", {"seed": 666})
        scheduler._finish(first, "failed", {}, {
            "c0": {"kind": "exception", "message": "boom", "label": "c0",
                   "attempts": 1},
        })
        again = scheduler.submit("point", {"seed": 666})
        assert again.job_id != first.job_id
        assert again.status == "queued"


class TestAdmissionControl:
    def test_saturated_queue_sheds_with_retry_hint(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.scheduler.build_cells", _fake_cells)
        monkeypatch.setattr("repro.serve.scheduler.MAX_QUEUE_DEPTH", 2)
        metrics = MetricsRegistry(enabled=True)
        journal = Journal(tmp_path / "journal.jsonl")
        sched = JobScheduler(journal=journal, metrics=metrics)
        try:
            sched.submit("point", {"seed": 1})  # worker not started: queued
            sched.submit("point", {"seed": 2})
            size = journal.size_bytes()
            with pytest.raises(SubmissionRejected) as exc:
                sched.submit("point", {"seed": 3})
            assert exc.value.reason == "saturated"
            assert exc.value.retry_after_s > 0
            assert journal.size_bytes() == size and len(sched.jobs) == 2
            assert metrics.counter_value("serve.jobs.rejected") == 1
        finally:
            journal.close()

    def test_failed_jobs_do_not_shed_a_healthy_submission(
        self, tmp_path, monkeypatch
    ):
        """A cell is a deterministic simulation: a failed job fails again
        for its own spec and says nothing about any other spec."""
        journal, sched = _make(tmp_path, monkeypatch)
        sched.start()
        try:
            for seed in (666, 1666, 2666):  # distinct digests, all explode
                record = sched.submit("point", {"seed": seed})
                assert _wait_done(sched, record.job_id).status == "failed"
            healthy = sched.submit("point", {"seed": 5})
            assert _wait_done(sched, healthy.job_id).status == "done"
            assert "breaker" not in sched.overview()
        finally:
            sched.stop()
            journal.close()


class TestRecovery:
    def test_recover_adopts_pending_jobs_and_results(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.scheduler.build_cells", _fake_cells)
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        sched = JobScheduler(journal=journal, pool_jobs=1)
        sched.start()
        done = sched.submit("point", {"seed": 2})
        _wait_done(sched, done.job_id)
        pending = sched.submit("point", {"seed": 3})
        sched.stop()  # journals job_requeued if it was mid-run
        journal.close()

        journal2 = Journal(path)
        sched2 = JobScheduler(journal=journal2, pool_jobs=1)
        sched2.recover(rebuild(read_events(path)))
        # the finished job came back final, the pending one queued
        assert sched2.get(done.job_id).status == "done"
        assert sched2.get(done.job_id).result == done.result
        record = sched2.get(pending.job_id)
        assert record.status in ("queued", "done")
        sched2.start()
        recovered = _wait_done(sched2, pending.job_id)
        assert recovered.status == "done"
        # and the recovered done job answers its digest without a rerun
        hit = sched2.submit("point", {"seed": 2})
        assert hit.job_id == done.job_id and sched2.hits == 1
        sched2.stop()
        journal2.close()

    def test_stop_requeues_the_inflight_job(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.scheduler.build_cells", _fake_cells)
        journal = Journal(tmp_path / "journal.jsonl")
        sched = JobScheduler(journal=journal)
        record = sched.submit("point", {"seed": 1})
        sched._running.add(record.job_id)  # as if caught mid-run
        sched.stop()
        events = read_events(journal.path)
        assert events[-1]["event"] == "job_requeued"
        assert events[-1]["job_id"] == record.job_id
        journal.close()
        assert rebuild(events).pending == [record.job_id]


class TestWorkloadIsolation:
    """Two workloads with identical RunConfig/seed never collide —
    not live, and not through a journal replay."""

    def test_replayed_cache_keeps_workloads_apart(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.scheduler.build_cells", _workload_cells)
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        sched = JobScheduler(journal=journal, pool_jobs=1)
        sched.start()
        # identical params except for the workload name
        a = sched.submit("point", {"seed": 7})  # workload defaults to t2_7
        b = sched.submit("point", {"seed": 7, "workload": "rbgs"})
        assert a.job_id != b.job_id and a.digest != b.digest
        done_a = _wait_done(sched, a.job_id)
        done_b = _wait_done(sched, b.job_id)
        assert done_a.result == {"c0": {"value": "t2_7"}}
        assert done_b.result == {"c0": {"value": "rbgs"}}
        sched.stop()
        journal.close()

        # replay the journal into a fresh scheduler: each digest comes
        # back with its own result, and a resubmission of either spec
        # is answered by that workload's job, not the other's
        journal2 = Journal(path)
        sched2 = JobScheduler(journal=journal2, pool_jobs=1)
        sched2.recover(rebuild(read_events(path)))
        hit_a = sched2.submit("point", {"seed": 7})
        hit_b = sched2.submit("point", {"seed": 7, "workload": "rbgs"})
        assert (hit_a.job_id, hit_b.job_id) == (a.job_id, b.job_id)
        assert hit_a.result == {"c0": {"value": "t2_7"}}
        assert hit_b.result == {"c0": {"value": "rbgs"}}
        sched2.stop()
        journal2.close()


class TestOverview:
    def test_overview_shape(self, scheduler):
        scheduler.start()
        record = scheduler.submit("point", {"seed": 1})
        _wait_done(scheduler, record.job_id)
        view = scheduler.overview()
        assert view["queue_depth"] == 0
        assert "breaker" not in view
        assert view["cache"]["entries"] == 1
        assert [j["job_id"] for j in view["jobs"]] == [record.job_id]
        assert view["running"] == [] and view["workers"] == 1


def _make(tmp_path, monkeypatch, cells=_fake_cells, name="journal.jsonl",
          **kwargs):
    monkeypatch.setattr("repro.serve.scheduler.build_cells", cells)
    journal = Journal(tmp_path / name, compact_bytes=kwargs.pop(
        "compact_bytes", 0))
    kwargs.setdefault("pool_jobs", 1)
    return journal, JobScheduler(journal=journal, **kwargs)


class TestConcurrentWorkers:
    def test_two_jobs_run_simultaneously(self, tmp_path, monkeypatch):
        """The tentpole acceptance: with workers=2, two submitted jobs
        are both observably running at the same time."""
        _GATES[11], _GATES[12] = threading.Event(), threading.Event()
        journal, sched = _make(tmp_path, monkeypatch, cells=_gated_cells,
                               workers=2)
        sched.start()
        try:
            a = sched.submit("point", {"seed": 11})
            b = sched.submit("point", {"seed": 12})
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                running = sched.overview()["running"]
                if len(running) == 2:
                    break
                time.sleep(0.01)
            assert sorted(running) == sorted([a.job_id, b.job_id])
            assert sched.get(a.job_id).status == "running"
            assert sched.get(b.job_id).status == "running"
            _GATES[11].set()
            _GATES[12].set()
            assert _wait_done(sched, a.job_id).status == "done"
            assert _wait_done(sched, b.job_id).status == "done"
        finally:
            _GATES[11].set(), _GATES[12].set()
            sched.stop()
            journal.close()

    def test_single_worker_runs_one_at_a_time(self, tmp_path, monkeypatch):
        _GATES[13], _GATES[14] = threading.Event(), threading.Event()
        journal, sched = _make(tmp_path, monkeypatch, cells=_gated_cells,
                               workers=1)
        sched.start()
        try:
            a = sched.submit("point", {"seed": 13})
            sched.submit("point", {"seed": 14})
            deadline = time.monotonic() + 10
            while (time.monotonic() < deadline
                   and sched.get(a.job_id).status != "running"):
                time.sleep(0.01)
            time.sleep(0.05)  # give a second worker (if any) time to err
            assert sched.overview()["running"] == [a.job_id]
        finally:
            _GATES[13].set(), _GATES[14].set()
            sched.stop()
            journal.close()

    def test_results_identical_across_worker_counts(
        self, tmp_path, monkeypatch
    ):
        """Neither concurrency nor where the cells run (the worker
        threads at pool_jobs=1, pool processes at 2) may change a single
        byte of any result."""
        seeds, payloads = (3, 4, 5, 8), {}
        for workers in (1, 2):
            for pool_jobs in (1, 2):
                journal, sched = _make(
                    tmp_path, monkeypatch, workers=workers,
                    name=f"w{workers}j{pool_jobs}.jsonl", pool_jobs=pool_jobs,
                )
                sched.start()
                try:
                    records = [sched.submit("point", {"seed": s}) for s in seeds]
                    payloads[workers, pool_jobs] = [
                        json.dumps(_wait_done(sched, r.job_id).to_result_dict()
                                   ["result"], sort_keys=True)
                        for r in records
                    ]
                finally:
                    sched.stop()
                    journal.close()
        assert len(payloads) == 4
        assert len(set(map(tuple, payloads.values()))) == 1

    def test_workers_must_be_positive(self, tmp_path, monkeypatch):
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="workers"):
            _make(tmp_path, monkeypatch, workers=0)
        for pool_jobs in (0, -3):
            with pytest.raises(ConfigurationError, match="pool_jobs"):
                _make(tmp_path, monkeypatch, pool_jobs=pool_jobs)


# -- cells for the warm-pool tests: they run in pool processes, so their
# gates and flags are files under tmp_path, not threading.Events --------
def _in_process(value):
    return {"pid": os.getpid()}


def _park_on_file(flag_dir, seed):
    """Announce this process, then park until ``<flag_dir>/open`` exists."""
    with open(os.path.join(flag_dir, f"pid-{seed}"), "w") as fh:
        fh.write(str(os.getpid()))
    deadline = time.monotonic() + 30
    while not os.path.exists(os.path.join(flag_dir, "open")):
        assert time.monotonic() < deadline, "gate never opened"
        time.sleep(0.01)
    return {"pid": os.getpid()}


def _exit_once(flag_dir, seed):
    """First attempt: exit the worker process. Every later attempt
    behaves."""
    flag = os.path.join(flag_dir, f"exit-{seed}")
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("1")
        os._exit(1)
    return {"pid": os.getpid()}


def _pool_cells(flag_dir):
    """Seeds 100-199 park on the file gate, 200-299 kill their worker
    once; any other seed just reports its pid."""

    def build(spec):
        seed = spec.params["seed"]
        kwargs = dict(flag_dir=str(flag_dir), seed=seed)
        if 100 <= seed < 200:
            return [SweepCell(key=("c0",), fn=_park_on_file, kwargs=kwargs)]
        if 200 <= seed < 300:
            return [SweepCell(key=("c0",), fn=_exit_once, kwargs=kwargs)]
        return [SweepCell(key=("c0",), fn=_in_process, kwargs=dict(value=seed))]

    return build


def _cell_pids(record):
    return [e["pid"] for e in record.events if e["type"] == "cell"]


def _read_pid(path, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists() and path.read_text():
            return int(path.read_text())
        time.sleep(0.01)
    raise AssertionError(f"{path.name} never written")


class TestWarmPool:
    """pool_jobs >= 2: each worker thread owns pool processes for the
    scheduler's whole life and every cell runs there."""

    def _make(self, tmp_path, monkeypatch, **kwargs):
        kwargs.setdefault("pool_jobs", 2)
        kwargs.setdefault("metrics", MetricsRegistry(enabled=True))
        return _make(tmp_path, monkeypatch, cells=_pool_cells(tmp_path),
                     **kwargs)

    def test_processes_exist_when_start_returns(self, tmp_path, monkeypatch):
        for workers, pool_jobs, sizes in ((1, 2, [2]), (2, 2, [1, 1]),
                                          (2, 5, [2, 2]), (3, 2, [1, 1, 1])):
            journal, sched = self._make(
                tmp_path, monkeypatch, workers=workers, pool_jobs=pool_jobs,
                name=f"w{workers}j{pool_jobs}.jsonl",
            )
            sched.start()  # no job submitted: nothing forks on demand
            try:
                assert [len(p.pids()) for p in sched._pools] == sizes
                assert sched.metrics.gauge_value(
                    "serve.pool.processes") == sum(sizes)
                assert sched.metrics.counter_value(
                    "serve.pool.spawns") == workers
            finally:
                sched.stop()
                journal.close()
            assert [p.pids() for p in sched._pools] == [[]] * workers

    def test_pool_jobs_1_means_no_pool(self, tmp_path, monkeypatch):
        journal, sched = self._make(tmp_path, monkeypatch, pool_jobs=1)
        sched.start()
        try:
            assert sched._pools == []
            done = _wait_done(sched, sched.submit("point", {"seed": 1}).job_id)
            assert _cell_pids(done) == [os.getpid()]
        finally:
            sched.stop()
            journal.close()

    def test_two_workers_simulate_in_two_processes_at_once_and_a_worker_keeps_its_process(
        self, tmp_path, monkeypatch
    ):
        journal, sched = self._make(tmp_path, monkeypatch, workers=2)
        sched.start()
        try:
            launched = {pid for p in sched._pools for pid in p.pids()}
            a = sched.submit("point", {"seed": 101})
            b = sched.submit("point", {"seed": 102})
            pid_a = _read_pid(tmp_path / "pid-101")
            pid_b = _read_pid(tmp_path / "pid-102")
            # both parked right now, in two processes, neither of them ours
            assert {pid_a, pid_b} == launched and os.getpid() not in launched
            assert sorted(sched.overview()["running"]) == sorted(
                [a.job_id, b.job_id])
            (tmp_path / "open").touch()
            assert _cell_pids(_wait_done(sched, a.job_id)) == [pid_a]
            assert _cell_pids(_wait_done(sched, b.job_id)) == [pid_b]
            # park one worker again: the other runs three jobs in a row,
            # all in the one process it has had since start()
            (tmp_path / "open").unlink()
            parked = sched.submit("point", {"seed": 103})
            busy = _read_pid(tmp_path / "pid-103")
            pids = []
            for seed in (1, 2, 3):
                record = sched.submit("point", {"seed": seed})
                pids += _cell_pids(_wait_done(sched, record.job_id))
            assert len(pids) == 3 and len(set(pids)) == 1
            assert {busy, pids[0]} == launched
            (tmp_path / "open").touch()
            assert _wait_done(sched, parked.job_id).status == "done"
            assert sched.metrics.counter_value("serve.pool.spawns") == 2
            assert sched.metrics.counter_value("serve.pool.kills") == 0
        finally:
            (tmp_path / "open").touch()
            sched.stop()
            journal.close()

    def test_a_kill_costs_one_respawn_and_the_next_job_a_new_process(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("repro.experiments.sweep.BASE_DELAY_S", 0.0)
        journal, sched = self._make(tmp_path, monkeypatch)
        sched.start()
        try:
            launched = set(sched._pools[0].pids())
            done = _wait_done(sched, sched.submit("point", {"seed": 201}).job_id,
                              timeout=30)
            assert done.status == "done" and not done.errors
            assert sched.metrics.counter_value("serve.pool.kills") == 1
            assert sched.metrics.counter_value("serve.pool.spawns") == 2
            assert sched.metrics.counter_value("serve.cells.retried") == 1
            after = _wait_done(sched, sched.submit("point", {"seed": 5}).job_id)
            assert after.status == "done"
            assert not set(_cell_pids(done) + _cell_pids(after)) & launched
            assert sched.metrics.counter_value("serve.pool.kills") == 1
        finally:
            sched.stop()
            journal.close()

    def test_stop_closes_the_pools_under_a_running_job(
        self, tmp_path, monkeypatch
    ):
        journal, sched = self._make(tmp_path, monkeypatch, workers=2)
        sched.start()
        record = sched.submit("point", {"seed": 104})
        pid = _read_pid(tmp_path / "pid-104")
        start = time.monotonic()
        sched.stop()
        assert time.monotonic() - start < 1.0  # nobody waited for the gate
        assert not any(thread.is_alive() for thread in sched._threads)
        assert all(p.closed and p.pids() == [] for p in sched._pools)
        with pytest.raises(OSError):  # reaped: not even a zombie is left
            os.kill(pid, 0)
        # ended without a respawn, a retry or a verdict on the job
        assert sched.metrics.counter_value("serve.pool.spawns") == 2
        assert sched.metrics.counter_value("serve.pool.kills") == 0
        events = [e["event"] for e in read_events(journal.path)]
        assert events == ["job_submitted", "job_started", "job_requeued"]
        assert sched.get(record.job_id).status == "running"
        journal.close()
        assert rebuild(read_events(journal.path)).pending == [record.job_id]


class TestCellProgress:
    def test_cells_done_reaches_cells_total(self, scheduler):
        """Satellite 2: progress comes from the executor's structured
        per-cell callback, not from parsing progress-line text."""
        scheduler.start()
        record = scheduler.submit("point", {"seed": 5})  # 5 cells
        done = _wait_done(scheduler, record.job_id)
        assert (done.cells_done, done.cells_total) == (5, 5)
        cell_events = [e for e in done.events if e["type"] == "cell"]
        assert len(cell_events) == 5
        assert all(e["ok"] for e in cell_events)
        assert cell_events[-1]["cells_done"] == 5

    def test_failed_cells_still_count_toward_done(self, scheduler):
        scheduler.start()
        record = scheduler.submit("point", {"seed": 666})  # 6 exploding cells
        done = _wait_done(scheduler, record.job_id)
        assert done.status == "failed"
        assert (done.cells_done, done.cells_total) == (6, 6)
        cell_events = [e for e in done.events if e["type"] == "cell"]
        assert len(cell_events) == 6
        assert not any(e["ok"] for e in cell_events)

    def test_event_stream_orders_started_cells_finished(self, scheduler):
        scheduler.start()
        record = scheduler.submit("point", {"seed": 2})
        done = _wait_done(scheduler, record.job_id)
        kinds = [e["type"] for e in done.events]
        assert kinds == ["started", "cell", "cell", "finished"]
        assert [e["seq"] for e in done.events] == [1, 2, 3, 4]

    def test_events_since_long_poll(self, scheduler):
        scheduler.start()
        record = scheduler.submit("point", {"seed": 1})
        _wait_done(scheduler, record.job_id)
        events, final = scheduler.events_since(record.job_id, 0)
        assert [e["type"] for e in events] == ["started", "cell", "finished"]
        assert not final  # final only once the caller has drained
        # the drained stream closes immediately
        events, final = scheduler.events_since(record.job_id, len(events))
        assert (events, final) == ([], True)
        assert scheduler.events_since("nonesuch", 0) == ([], True)


class TestPriorities:
    def test_higher_priority_runs_first(self, tmp_path, monkeypatch):
        journal, sched = _make(tmp_path, monkeypatch)
        low = sched.submit("point", {"seed": 1})
        high = sched.submit("point", {"seed": 2, "priority": 5})
        assert high.priority == 5 and low.priority == 0
        sched.start()  # workers only see the queue now
        _wait_done(sched, low.job_id)
        _wait_done(sched, high.job_id)
        started = [e["job_id"] for e in read_events(journal.path)
                   if e["event"] == "job_started"]
        assert started == [high.job_id, low.job_id]
        sched.stop()
        journal.close()

    def test_waiting_jobs_age_past_fresh_high_priority(
        self, tmp_path, monkeypatch
    ):
        """A priority-0 job that has waited long enough overtakes a
        freshly submitted priority-3 job: no starvation."""
        monkeypatch.setattr("repro.serve.scheduler.AGING_S", 0.01)
        journal, sched = _make(tmp_path, monkeypatch)
        old = sched.submit("point", {"seed": 1})
        time.sleep(0.1)  # ages ~10 points at AGING_S=0.01
        fresh = sched.submit("point", {"seed": 2, "priority": 3})
        sched.start()
        _wait_done(sched, old.job_id)
        _wait_done(sched, fresh.job_id)
        started = [e["job_id"] for e in read_events(journal.path)
                   if e["event"] == "job_started"]
        assert started == [old.job_id, fresh.job_id]
        sched.stop()
        journal.close()

    def test_equal_priorities_run_fifo(self, tmp_path, monkeypatch):
        journal, sched = _make(tmp_path, monkeypatch)
        records = [sched.submit("point", {"seed": s}) for s in (1, 2, 3)]
        sched.start()
        for record in records:
            _wait_done(sched, record.job_id)
        started = [e["job_id"] for e in read_events(journal.path)
                   if e["event"] == "job_started"]
        assert started == [r.job_id for r in records]
        sched.stop()
        journal.close()

    def test_coalescing_promotes_but_never_demotes(
        self, tmp_path, monkeypatch
    ):
        journal, sched = _make(tmp_path, monkeypatch)
        first = sched.submit("point", {"seed": 2})
        assert first.priority == 0
        again = sched.submit("point", {"seed": 2, "priority": 4})
        assert again.job_id == first.job_id and first.priority == 4
        sched.submit("point", {"seed": 2, "priority": 1})
        assert first.priority == 4  # demotion ignored
        journal.close()

    def test_priority_does_not_split_the_digest(self, scheduler):
        scheduler.start()
        plain = scheduler.submit("point", {"seed": 2})
        _wait_done(scheduler, plain.job_id)
        hot = scheduler.submit("point", {"seed": 2, "priority": 9})
        assert hot.digest == plain.digest
        assert hot is plain  # one done job answers both


class TestSchedulerCompaction:
    def test_compacted_journal_restores_identical_state(
        self, tmp_path, monkeypatch
    ):
        """Drive the journal past its threshold with real jobs, then
        reboot a scheduler from the compacted file: identical status
        and result payloads for every prior job id."""
        path = tmp_path / "journal.jsonl"
        journal, sched = _make(tmp_path, monkeypatch, compact_bytes=600)
        sched.start()
        records = [sched.submit("point", {"seed": s}) for s in (2, 3, 4)]
        finals = {
            r.job_id: _wait_done(sched, r.job_id).to_result_dict()
            for r in records
        }
        size = journal.size_bytes()
        assert sched.submit("point", {"seed": 2}).job_id == records[0].job_id
        assert journal.size_bytes() == size  # a hit is no line to fold
        sched.stop()
        journal.close()
        events = read_events(path)
        assert "snapshot" in [e["event"] for e in events]
        assert journal.compactions >= 1

        journal2 = Journal(path)
        sched2 = JobScheduler(journal=journal2, pool_jobs=1)
        sched2.recover(rebuild(events))
        for job_id, payload in finals.items():
            restored = sched2.get(job_id).to_result_dict()
            assert json.dumps(restored, sort_keys=True) == json.dumps(
                payload, sort_keys=True
            )
        journal2.close()

    def test_stop_during_compaction_does_not_requeue_a_finished_job(
        self, tmp_path, monkeypatch
    ):
        """stop() landing while the worker is still inside the
        compaction that follows its job_finished line (outside the
        scheduler lock) must not journal job_requeued for that job."""
        path = tmp_path / "journal.jsonl"
        journal, sched = _make(tmp_path, monkeypatch)
        in_compaction, release = threading.Event(), threading.Event()

        def blocked_compact():
            in_compaction.set()
            assert release.wait(timeout=10), "compaction never released"
            return False

        monkeypatch.setattr(journal, "maybe_compact", blocked_compact)
        sched.start()
        record = sched.submit("point", {"seed": 3})
        assert in_compaction.wait(timeout=10), "worker never reached compaction"
        assert sched.get(record.job_id).status == "done"
        sched.stop()
        release.set()
        for thread in sched._threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        journal.close()
        events = read_events(path)
        assert "job_requeued" not in [e["event"] for e in events]
        assert rebuild(events).jobs[record.job_id]["status"] == "done"

    def test_replay_ignores_a_requeue_after_the_finish(self, tmp_path):
        """The other side of the same race: stop() between the worker's
        job_finished append and its lock hold still journals the requeue;
        replay must keep the durable ``done``."""
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.append("job_submitted", job_id="j1", digest="d", spec={})
            journal.append("job_started", job_id="j1")
            journal.append("job_finished", job_id="j1", status="done",
                           result={"c0": 1}, errors={})
            journal.append("job_requeued", job_id="j1")
        state = rebuild(read_events(path))
        assert state.jobs["j1"]["status"] == "done"
        assert state.pending == []
        assert state.done == ["j1"]
        assert state.jobs["j1"]["result"] == {"c0": 1}


# -- the cell index: a finished cell answers every job that holds it ------
#: a real ``fig9`` grid (six codes x cores 1, 2) small enough to run on
#: the test's thread, and the ``point`` job of its ``v5/2`` cell
_GRID = {"scale": "tiny", "n_nodes": 2, "seed": 9}
_POINT = {**_GRID, "code": "v5", "cores": 2}


@pytest.fixture
def dispatched(monkeypatch):
    """The number of cells each job handed its executor, in run order."""
    counts = []
    run = SweepExecutor.run

    def counting(self, cells):
        counts.append(len(cells))
        return run(self, cells)

    monkeypatch.setattr(SweepExecutor, "run", counting)
    return counts


def _boot(path):
    """A scheduler over the journal at ``path``, its replay adopted."""
    journal = Journal(path)
    sched = JobScheduler(journal=journal, metrics=MetricsRegistry(enabled=True),
                         pool_jobs=1)
    sched.recover(rebuild(read_events(path)))
    return journal, sched


def _run(sched, kind, params):
    record = sched.submit(kind, params)
    if record.status == "queued":
        _run_next(sched)
    return record


def _payload(sched, record):
    """The job's payload bytes and its ``job_finished`` line, ids aside."""
    [line] = [e for e in read_events(sched.journal.path)
              if e["event"] == "job_finished" and e["job_id"] == record.job_id]
    line = {k: v for k, v in line.items() if k not in ("seq", "job_id")}
    body = {k: v for k, v in record.to_result_dict().items() if k != "job_id"}
    return json.dumps(body), json.dumps(line, sort_keys=True)


@pytest.fixture
def cold(tmp_path_factory):
    """Payloads of the grid and the point job, each alone on a fresh
    scheduler: what every answer must equal byte for byte."""
    payloads = {}
    for kind, params in (("fig9", _GRID), ("point", _POINT)):
        journal, sched = _boot(tmp_path_factory.mktemp(kind) / "journal.jsonl")
        payloads[kind] = _payload(sched, _run(sched, kind, params))
        journal.close()
    return payloads


class TestCellIndex:
    """Real cells: a ``point`` job is the 1x1 ``fig9`` grid, so a finished
    grid answers it, and a finished point answers its cell of a grid."""

    def test_a_point_inside_a_done_grid_runs_no_cell(
        self, tmp_path, cold, dispatched
    ):
        journal, sched = _boot(tmp_path / "journal.jsonl")
        grid = _run(sched, "fig9", _GRID)
        point = _run(sched, "point", _POINT)
        assert dispatched == [12, 0]
        assert (grid.status, point.status) == ("done", "done")
        assert _payload(sched, point) == cold["point"]
        [cell] = [e for e in point.events if e["type"] == "cell"]
        assert cell["cached"] and cell["pid"] is None and cell["wall_s"] == 0
        assert (cell["cells_done"], cell["cells_total"]) == (1, 1)
        assert not any(e.get("cached") for e in grid.events)
        assert sched.overview()["cache"]["cell_hits"] == 1
        assert sched.metrics.counter_value("serve.cache.cell_hits") == 1.0
        journal.close()

    def test_a_grid_after_its_point_runs_the_other_eleven(
        self, tmp_path, cold, dispatched
    ):
        journal, sched = _boot(tmp_path / "journal.jsonl")
        _run(sched, "point", _POINT)
        grid = _run(sched, "fig9", _GRID)
        assert dispatched == [1, 11]
        assert _payload(sched, grid) == cold["fig9"]
        cached = [e["cell"] for e in grid.events if e.get("cached")]
        assert cached == ["v5/2"] and grid.cells_done == 12
        journal.close()

    def test_a_restart_keeps_the_index(self, tmp_path, cold, dispatched):
        """Over the plain journal, then over its compacted snapshot."""
        path = tmp_path / "journal.jsonl"
        journal, sched = _boot(path)
        _run(sched, "fig9", _GRID)
        journal.close()
        journal, sched = _boot(path)
        point = _run(sched, "point", _POINT)
        assert _payload(sched, point) == cold["point"]
        journal.compact()
        assert "snapshot" in [e["event"] for e in read_events(path)]
        journal.close()
        journal, sched = _boot(path)
        other = _run(sched, "point", {**_POINT, "code": "v4", "cores": 1})
        assert other.status == "done" and sched.cell_hits == 1
        assert dispatched == [12, 0, 0]
        journal.close()

    def test_one_grid_answers_every_seed(self, tmp_path_factory, dispatched):
        """A SYNTH cell carries no seed, so the grid at seed 9 answers the
        point at seed 8 and the grid at seed 10: each payload is, byte
        for byte, a fresh scheduler's."""
        jobs = [("fig9", _GRID), ("point", {**_POINT, "seed": 8}),
                ("fig9", {**_GRID, "seed": 10})]
        fresh = []
        for kind, params in jobs:
            journal, sched = _boot(tmp_path_factory.mktemp(kind) / "j.jsonl")
            fresh.append(_payload(sched, _run(sched, kind, params)))
            journal.close()
        dispatched.clear()
        journal, sched = _boot(tmp_path_factory.mktemp("warm") / "j.jsonl")
        records = [_run(sched, kind, params) for kind, params in jobs]
        assert dispatched == [12, 0, 0]
        assert [_payload(sched, record) for record in records] == fresh
        assert sched.cell_hits == 13
        journal.close()

    def test_a_chaos_job_at_a_new_seed_runs_every_cell(
        self, tmp_path, dispatched
    ):
        """Chaos cells run REAL: the seed draws the data whose bitwise
        match they check, so it stays in their digest."""
        journal, sched = _boot(tmp_path / "journal.jsonl")
        chaos = {"scale": "tiny", "n_nodes": 2, "codes": ["original", "v5"]}
        for seed in (9, 10):
            assert _run(sched, "chaos", {**chaos, "seed": seed}).status == "done"
        assert dispatched == [2, 2] and sched.cell_hits == 0
        journal.close()

    def test_a_restart_indexes_one_cell_per_seedless_digest(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal, sched = _boot(path)
        for seed in (7, 8):
            assert _run(sched, "fig9", {**_GRID, "seed": seed}).status == "done"
        journal.close()
        journal, sched = _boot(path)
        assert len(sched.jobs) == 2 and len(sched._cells) == 12
        journal.close()

    def test_a_done_job_whose_cells_no_longer_build_still_boots(self, tmp_path):
        """Journaled before a knob none of its codes reads was refused:
        its cells cannot be indexed, and it still answers by id."""
        path = tmp_path / "journal.jsonl"
        spec = {"kind": "chaos", "params": {"codes": ["original"],
                                            "stealing": True}}
        with Journal(path) as journal:
            journal.append("job_submitted", job_id="j1", digest="d", spec=spec)
            journal.append("job_finished", job_id="j1", status="done",
                           result={"original": 1}, errors={})
        journal, sched = _boot(path)
        assert sched.get("j1").result == {"original": 1}
        assert sched._cells == {}
        journal.close()


def test_workers_share_the_index_without_losing_an_update(
    tmp_path, monkeypatch
):
    """Four worker threads on overlapping stub cells, switching every
    10 us: each answered cell is counted once, each payload is cold."""
    import sys

    journal, sched = _make(tmp_path, monkeypatch, workers=4,
                           metrics=MetricsRegistry(enabled=True))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        sched.start()
        # seeds s and s + 10 have the same cells (``_fake_cells``)
        records = [sched.submit("point", {"seed": s})
                   for s in (*range(1, 8), *range(11, 18))]
        done = [_wait_done(sched, r.job_id) for r in records]
    finally:
        sys.setswitchinterval(interval)
        sched.stop()
        journal.close()
    cached = 0
    for record in done:
        cells = _fake_cells(record.spec)
        assert record.status == "done"
        assert record.result == {c.label(): c.fn(**c.kwargs) for c in cells}
        assert record.cells_done == record.cells_total == len(cells)
        cached += sum(bool(e.get("cached")) for e in record.events)
    assert cached == sched.cell_hits > 0
    assert sched.metrics.counter_value("serve.cache.cell_hits") == cached


def _half_broken_cells(spec):
    """A healthy cell and a failing one, the same for every ``code``."""
    seed = spec.params["seed"]
    return [SweepCell(key=("ok",), fn=_ok, kwargs=dict(value=seed)),
            SweepCell(key=("bad",), fn=_boom, kwargs=dict(value=seed))]


def test_a_partial_job_indexes_only_its_healthy_cells(
    tmp_path, monkeypatch, dispatched
):
    journal, sched = _make(tmp_path, monkeypatch, cells=_half_broken_cells)
    first = _run(sched, "point", {"seed": 5, "code": "v5"})
    again = _run(sched, "point", {"seed": 5, "code": "v4"})
    assert (first.status, again.status) == ("partial", "partial")
    assert dispatched == [2, 1]  # the error cell ran again, alone
    assert again.result == first.result == {"ok": {"value": 5}}
    assert again.errors["bad"]["kind"] == "exception"
    failed = [e["cell"] for e in again.events if e["type"] == "cell"
              and not e["cached"]]
    assert failed == ["bad"]
    journal.close()


# -- the admission path as a state machine --------------------------------
#: seed 666 explodes (``_fake_cells``): its digest fails and is re-admitted
_MACHINE_SEEDS = (1, 2, 3, 666)


class AdmissionMachine(RuleBasedStateMachine):
    """Submit, finish, restart and compact in any order; no worker
    thread runs, so a job finishes only when ``finish`` runs it here."""

    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="admission-"))
        self.path = self.dir / "journal.jsonl"
        self._boot()

    def _boot(self):
        self.journal = Journal(self.path)
        self.sched = JobScheduler(journal=self.journal, pool_jobs=1)
        self.sched.recover(rebuild(read_events(self.path)))

    def _table(self):
        return {job_id: (r.status, r.result, r.errors)
                for job_id, r in self.sched.jobs.items()}

    @rule(seed=st.sampled_from(_MACHINE_SEEDS))
    def submit(self, seed):
        same = [r for r in self.sched.jobs.values()
                if r.spec.params["seed"] == seed]
        answer = [r for r in same if r.status in ("queued", "done")]
        known, size = set(self.sched.jobs), self.journal.size_bytes()
        # never shed: four seeds cannot fill the queue, and a failed
        # job of one seed does not hold back any other
        record = self.sched.submit("point", {"seed": seed})
        if answer and answer[0].status == "done":
            assert (record.job_id, record.result) == (
                answer[0].job_id, answer[0].result)
            assert self.journal.size_bytes() == size
        elif answer:
            assert record is answer[0]  # coalesced onto the queued job
        else:  # never seen, or every earlier job of it failed
            assert record.job_id not in known and record.status == "queued"

    @precondition(lambda self: self.sched._queue)
    @rule()
    def finish(self):
        """One pass of a worker's loop, on this thread."""
        record = _run_next(self.sched)
        assert record.status == ("failed" if record.spec.params["seed"] == 666
                                 else "done")

    @rule(compact=st.booleans())
    def restart(self, compact):
        before = self._table()
        self.sched.stop()
        if compact:
            self.journal.compact()
        self.journal.close()
        self._boot()
        assert self._table() == before

    @rule()
    def compact(self):
        self.journal.compact()

    @invariant()
    def one_job_answers_each_digest(self):
        live = [r.digest for r in self.sched.jobs.values()
                if r.status in ("queued", "running", "done")]
        assert len(live) == len(set(live))
        done = sum(r.status == "done" for r in self.sched.jobs.values())
        assert self.sched.overview()["cache"]["entries"] == done

    @invariant()
    def a_payload_is_its_cold_payload(self):
        """Answered from the cell index or run, the same bytes."""
        for r in self.sched.jobs.values():
            if r.status in ("done", "partial"):
                cells = _fake_cells(r.spec)
                cold, _ = serialize_results(cells, {
                    c.key: c.fn(**c.kwargs) for c in cells})
                assert json.dumps(r.result) == json.dumps(cold)

    def teardown(self):
        self.sched.stop()
        self.journal.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def test_admission_state_machine(monkeypatch):
    monkeypatch.setattr("repro.serve.scheduler.build_cells", _fake_cells)
    run_state_machine_as_test(AdmissionMachine, settings=settings(
        derandomize=True, max_examples=40, stateful_step_count=25,
        deadline=None, database=None,
    ))
