"""The scheduler: admission, coalescing, execution, degradation,
concurrent workers, aged priorities, and journal compaction.

Cells are stubbed (``build_cells`` is monkeypatched) so these tests
exercise the control plane in milliseconds; the real experiment cells
are covered by the daemon round-trip and service-restart tests.
"""

import json
import os
import threading
import time

import pytest

from repro.experiments.sweep import RetryPolicy, SweepCell
from repro.obs.registry import MetricsRegistry
from repro.serve.breaker import BreakerConfig, CircuitBreaker
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
        retry=RetryPolicy(retries=0, base_delay_s=0.0, max_delay_s=0.0),
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
    def test_second_identical_submission_is_a_cache_hit(self, scheduler):
        scheduler.start()
        first = scheduler.submit("point", {"seed": 2})
        _wait_done(scheduler, first.job_id)
        second = scheduler.submit("point", {"seed": 2})
        assert second.cached and second.status == "done"
        assert second.job_id != first.job_id
        assert second.result == scheduler.get(first.job_id).result

    def test_cache_hits_are_journaled_as_finished(self, scheduler):
        scheduler.start()
        first = scheduler.submit("point", {"seed": 2})
        _wait_done(scheduler, first.job_id)
        second = scheduler.submit("point", {"seed": 2})
        finished = [
            e for e in read_events(scheduler.journal.path)
            if e["event"] == "job_finished"
        ]
        assert [e["job_id"] for e in finished] == [first.job_id, second.job_id]
        assert finished[1]["cached"] is True

    def test_pending_duplicates_coalesce(self, scheduler):
        # worker NOT started: both submissions sit in the queue
        first = scheduler.submit("point", {"seed": 2})
        second = scheduler.submit("point", {"seed": 2})
        assert second.job_id == first.job_id  # same record, no new work
        assert len(scheduler._queue) == 1

    def test_failed_jobs_are_not_cached(self, scheduler):
        scheduler.start()
        first = scheduler.submit("point", {"seed": 666})
        _wait_done(scheduler, first.job_id)
        second = scheduler.submit("point", {"seed": 666})
        assert not second.cached  # re-admitted, will re-run
        _wait_done(scheduler, second.job_id)


class TestAdmissionControl:
    def test_saturated_queue_sheds_with_retry_hint(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.scheduler.build_cells", _fake_cells)
        journal = Journal(tmp_path / "journal.jsonl")
        sched = JobScheduler(
            journal=journal,
            breaker=CircuitBreaker(BreakerConfig(max_queue_depth=2)),
        )
        try:
            sched.submit("point", {"seed": 1})  # worker not started: queued
            sched.submit("point", {"seed": 2})
            with pytest.raises(SubmissionRejected) as exc:
                sched.submit("point", {"seed": 3})
            assert exc.value.reason == "saturated"
            assert exc.value.retry_after_s > 0
        finally:
            journal.close()

    def test_repeated_failures_trip_the_breaker(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.scheduler.build_cells", _fake_cells)
        journal = Journal(tmp_path / "journal.jsonl")
        sched = JobScheduler(
            journal=journal,
            breaker=CircuitBreaker(BreakerConfig(failure_threshold=2)),
            retry=RetryPolicy(retries=0, base_delay_s=0.0, max_delay_s=0.0),
        )
        sched.start()
        try:
            for seed in (666, 1666):  # distinct digests, both explode
                record = sched.submit("point", {"seed": seed})
                _wait_done(sched, record.job_id)
            with pytest.raises(SubmissionRejected) as exc:
                sched.submit("point", {"seed": 5})
            assert exc.value.reason == "open"
        finally:
            sched.stop()
            journal.close()


class TestRecovery:
    def test_recover_adopts_pending_jobs_and_results(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.scheduler.build_cells", _fake_cells)
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        sched = JobScheduler(journal=journal, pool_jobs=1,
                             retry=RetryPolicy(retries=0, base_delay_s=0.0,
                                               max_delay_s=0.0))
        sched.start()
        done = sched.submit("point", {"seed": 2})
        _wait_done(sched, done.job_id)
        pending = sched.submit("point", {"seed": 3})
        sched.stop()  # journals job_requeued if it was mid-run
        journal.close()

        journal2 = Journal(path)
        sched2 = JobScheduler(journal=journal2, pool_jobs=1,
                              retry=RetryPolicy(retries=0, base_delay_s=0.0,
                                                max_delay_s=0.0))
        sched2.recover(rebuild(read_events(path)))
        # the finished job came back final, the pending one queued
        assert sched2.get(done.job_id).status == "done"
        assert sched2.get(done.job_id).result == done.result
        record = sched2.get(pending.job_id)
        assert record.status in ("queued", "done")
        sched2.start()
        recovered = _wait_done(sched2, pending.job_id)
        assert recovered.status == "done"
        # and the recovered cache serves the first digest without rerun
        hit = sched2.submit("point", {"seed": 2})
        assert hit.cached
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
        retry = RetryPolicy(retries=0, base_delay_s=0.0, max_delay_s=0.0)
        journal = Journal(path)
        sched = JobScheduler(journal=journal, pool_jobs=1, retry=retry)
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
        # is a cache hit serving that workload's bytes, not the other's
        journal2 = Journal(path)
        sched2 = JobScheduler(journal=journal2, pool_jobs=1, retry=retry)
        sched2.recover(rebuild(read_events(path)))
        hit_a = sched2.submit("point", {"seed": 7})
        hit_b = sched2.submit("point", {"seed": 7, "workload": "rbgs"})
        assert hit_a.cached and hit_b.cached
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
        assert view["breaker"]["state"] == "closed"
        assert view["cache"]["entries"] == 1
        assert [j["job_id"] for j in view["jobs"]] == [record.job_id]
        assert view["running"] == [] and view["workers"] == 1


def _make(tmp_path, monkeypatch, cells=_fake_cells, name="journal.jsonl",
          **kwargs):
    monkeypatch.setattr("repro.serve.scheduler.build_cells", cells)
    journal = Journal(tmp_path / name, compact_bytes=kwargs.pop(
        "compact_bytes", 0))
    kwargs.setdefault(
        "retry", RetryPolicy(retries=0, base_delay_s=0.0, max_delay_s=0.0))
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


def _misbehave_once(flag_dir, seed, how):
    """First attempt: exit the worker process, or hang far past any
    deadline. Every later attempt behaves."""
    flag = os.path.join(flag_dir, f"{how}-{seed}")
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("1")
        if how == "exit":
            os._exit(1)
        time.sleep(120)
    return {"pid": os.getpid()}


def _pool_cells(flag_dir):
    """Seeds 100-199 park on the file gate, 200-299 kill their worker
    once, 300-399 hang once; any other seed just reports its pid."""

    def build(spec):
        seed = spec.params["seed"]
        kwargs = dict(flag_dir=str(flag_dir), seed=seed)
        if 100 <= seed < 200:
            return [SweepCell(key=("c0",), fn=_park_on_file, kwargs=kwargs)]
        if 200 <= seed < 400:
            how = "exit" if seed < 300 else "hang"
            return [SweepCell(key=("c0",), fn=_misbehave_once,
                              kwargs=dict(kwargs, how=how))]
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

    @pytest.mark.parametrize("seed, timeout", [(201, None), (301, 1.0)],
                             ids=["worker-exits", "cell-hangs"])
    def test_a_kill_costs_one_respawn_and_the_next_job_a_new_process(
        self, tmp_path, monkeypatch, seed, timeout
    ):
        journal, sched = self._make(
            tmp_path, monkeypatch, cell_timeout=timeout,
            retry=RetryPolicy(retries=2, base_delay_s=0.0, max_delay_s=0.0),
        )
        sched.start()
        try:
            launched = set(sched._pools[0].pids())
            done = _wait_done(sched, sched.submit("point", {"seed": seed}).job_id,
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
        journal, sched = _make(tmp_path, monkeypatch, aging_s=0.01)
        old = sched.submit("point", {"seed": 1})
        time.sleep(0.1)  # ages ~10 points at aging_s=0.01
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
        assert hot.cached  # one cache entry serves both


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
        hit = sched.submit("point", {"seed": 2})  # suppressed-payload line
        finals[hit.job_id] = hit.to_result_dict()
        sched.stop()
        journal.close()
        events = read_events(path)
        assert "snapshot" in [e["event"] for e in events]
        assert journal.compactions >= 1

        journal2 = Journal(path)
        sched2 = JobScheduler(
            journal=journal2, pool_jobs=1,
            retry=RetryPolicy(retries=0, base_delay_s=0.0, max_delay_s=0.0),
        )
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
                           result={"c0": 1}, errors={}, cached=False)
            journal.append("job_requeued", job_id="j1")
        state = rebuild(read_events(path))
        assert state.jobs["j1"]["status"] == "done"
        assert state.pending == []
        assert state.results["d"]["result"] == {"c0": 1}

    def test_cache_hit_line_omits_payload_but_replay_restores_it(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "journal.jsonl"
        journal, sched = _make(tmp_path, monkeypatch)
        sched.start()
        first = sched.submit("point", {"seed": 2})
        done = _wait_done(sched, first.job_id)
        hit = sched.submit("point", {"seed": 2})
        sched.stop()
        journal.close()
        raw = [json.loads(line) for line in path.read_text().splitlines()]
        hit_line = next(
            r for r in raw
            if r["event"] == "job_finished" and r["job_id"] == hit.job_id
        )
        assert hit_line["cached"] and "result" not in hit_line
        state = rebuild(read_events(path))
        assert state.jobs[hit.job_id]["result"] == done.result
