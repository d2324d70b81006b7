"""Recovery tests for the self-healing sweep executor.

The contract under test: worker death, hung cells, and poisoned cells
must not abort a pooled sweep — the pool respawns, innocent in-flight
cells are requeued, and the merged output for every healthy cell stays
byte-identical to the serial sweep. ``on_error="record"`` degrades an
unrunnable cell to an explicit :class:`CellError` instead of failing
the whole grid.
"""

import os
import signal
import time

import pytest

from repro.experiments import sweep
from repro.experiments.sweep import (
    BASE_DELAY_S,
    MAX_DELAY_S,
    MAX_POOL_KILLS,
    CellError,
    CellTimeoutError,
    PoisonedCellError,
    SweepCell,
    SweepExecutor,
)
from repro.util.backoff import capped_exponential
from repro.util.errors import ConfigurationError


# -- cell bodies (module-level so the pool pickles them by reference) --
def _square(x):
    return x * x


def _kill_once(x, flag_dir):
    """SIGKILL the worker on the first attempt, then behave."""
    flag = os.path.join(flag_dir, f"killed-{x}")
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("1")
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _kill_always(x):
    os.kill(os.getpid(), signal.SIGKILL)


def _hang_once(x, flag_dir):
    """Hang far past any test deadline on the first attempt only."""
    flag = os.path.join(flag_dir, f"hung-{x}")
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("1")
        time.sleep(120)
    return x * x


def _hang_always(x):
    time.sleep(120)


def _boom(x):
    raise ValueError(f"cell {x} exploded")


@pytest.fixture(autouse=True)
def _no_backoff(monkeypatch):
    """Re-executions here follow one another without sleeping."""
    monkeypatch.setattr(sweep, "BASE_DELAY_S", 0.0)


def _cells(n, fn=_square, **extra):
    return [SweepCell(key=(i,), fn=fn, kwargs={"x": i, **extra}) for i in range(n)]


class TestWorkerDeathRecovery:
    def test_killed_worker_is_respawned_and_merge_matches_serial(self, tmp_path):
        """The satellite regression: kill a worker mid-sweep, output is
        byte-identical to the serial sweep."""
        serial, _ = SweepExecutor(jobs=1).run(_cells(6))
        cells = _cells(6, fn=_kill_once, flag_dir=str(tmp_path))
        parallel, stats = SweepExecutor(jobs=2).run(cells)
        assert parallel == serial
        assert stats.pool_kills >= 1
        assert stats.retries >= 1
        assert not stats.cell_errors

    def test_poisoned_cell_raises_by_default(self):
        cells = [
            SweepCell(key=("ok",), fn=_square, kwargs={"x": 3}),
            SweepCell(key=("bad",), fn=_kill_always, kwargs={"x": 0}),
        ]
        with pytest.raises(PoisonedCellError, match="bad"):
            SweepExecutor(jobs=2).run(cells)

    def test_poisoned_cell_recorded_and_healthy_cells_identical(self):
        """One poisoned cell degrades the sweep to a partial result;
        every healthy cell still matches the serial sweep exactly."""
        serial, _ = SweepExecutor(jobs=1).run(_cells(5))
        cells = _cells(5) + [
            SweepCell(key=("bad",), fn=_kill_always, kwargs={"x": 0})
        ]
        results, stats = SweepExecutor(
            jobs=2, on_error="record"
        ).run(cells)
        error = results[("bad",)]
        assert isinstance(error, CellError)
        assert error.kind == "poisoned"
        assert error.attempts >= 2  # killed workers at least twice
        healthy = {k: v for k, v in results.items() if k != ("bad",)}
        assert healthy == serial
        assert stats.cell_errors == {"bad": "poisoned"}
        assert list(results) == [(i,) for i in range(5)] + [("bad",)]

    def test_partial_result_at_higher_job_counts(self):
        serial, _ = SweepExecutor(jobs=1).run(_cells(8))
        for jobs in (2, 4):
            cells = [SweepCell(key=("bad",), fn=_kill_always, kwargs={"x": 0})]
            cells += _cells(8)
            results, _ = SweepExecutor(
                jobs=jobs, on_error="record"
            ).run(cells)
            assert results[("bad",)].kind == "poisoned"
            assert {k: v for k, v in results.items() if k != ("bad",)} == serial


class TestDeadlines:
    def test_hung_cell_is_killed_and_retried(self, tmp_path):
        serial, _ = SweepExecutor(jobs=1).run(_cells(4))
        cells = _cells(4, fn=_hang_once, flag_dir=str(tmp_path))
        results, stats = SweepExecutor(
            jobs=2, timeout=2.0
        ).run(cells)
        assert results == serial
        assert stats.pool_kills >= 1

    def test_always_hanging_cell_times_out(self):
        cells = [SweepCell(key=("hang",), fn=_hang_always, kwargs={"x": 0}),
                 SweepCell(key=(1,), fn=_square, kwargs={"x": 1})]
        results, stats = SweepExecutor(
            jobs=2, timeout=1.0, retries=1, on_error="record",
        ).run(cells)
        error = results[("hang",)]
        assert isinstance(error, CellError)
        assert error.kind == "timeout"
        assert error.attempts == 2  # initial run + one retry
        assert results[(1,)] == 1

    def test_timeout_raises_by_default(self):
        cells = [SweepCell(key=("hang",), fn=_hang_always, kwargs={"x": 0}),
                 SweepCell(key=(1,), fn=_square, kwargs={"x": 1})]
        with pytest.raises(CellTimeoutError, match="hang"):
            SweepExecutor(jobs=2, timeout=1.0, retries=0).run(cells)


class TestErrorRecording:
    def test_exception_recorded_when_requested(self):
        cells = [SweepCell(key=(1,), fn=_square, kwargs={"x": 1}),
                 SweepCell(key=("boom",), fn=_boom, kwargs={"x": 2})]
        results, stats = SweepExecutor(jobs=2, on_error="record").run(cells)
        assert results[(1,)] == 1
        assert results[("boom",)].kind == "exception"
        assert "exploded" in results[("boom",)].message
        assert stats.cell_errors == {"boom": "exception"}

    def test_exception_recorded_serially_too(self):
        cells = [SweepCell(key=(1,), fn=_square, kwargs={"x": 1}),
                 SweepCell(key=("boom",), fn=_boom, kwargs={"x": 2})]
        results, _ = SweepExecutor(jobs=1, on_error="record").run(cells)
        assert results[(1,)] == 1
        assert results[("boom",)].kind == "exception"

    def test_exception_still_raises_by_default(self):
        cells = [SweepCell(key=(2,), fn=_boom, kwargs={"x": 2})]
        with pytest.raises(ValueError, match="exploded"):
            SweepExecutor(jobs=1).run(cells)

    def test_cell_error_serializes(self):
        error = CellError(key=("a",), label="a", kind="timeout",
                          message="deadline", attempts=3)
        assert error.to_dict() == {
            "label": "a", "kind": "timeout",
            "message": "deadline", "attempts": 3,
        }


class TestRetryPolicy:
    """The retry policy: an int budget, constant pacing and threshold."""

    def test_backoff_is_capped_exponential(self, monkeypatch):
        monkeypatch.setattr(sweep, "BASE_DELAY_S", 0.1)
        monkeypatch.setattr(sweep, "MAX_DELAY_S", 1.0)
        assert sweep._backoff(0) == 0.1
        assert sweep._backoff(2) == pytest.approx(0.4)
        assert sweep._backoff(10) == 1.0
        assert sweep._backoff(100_000) == 1.0  # no float overflow

    def test_validation(self):
        # the retry budget is an int; the pacing and the quarantine
        # threshold are constants, not settings
        with pytest.raises(ConfigurationError):
            SweepExecutor(retries=-1)
        for keyword in ("retry", "max_pool_kills", "base_delay_s", "max_delay_s"):
            with pytest.raises(TypeError, match=keyword):
                SweepExecutor(**{keyword: 0})
        assert type(MAX_POOL_KILLS) is int and MAX_POOL_KILLS >= 1
        assert MAX_DELAY_S >= BASE_DELAY_S > 0.0
        with pytest.raises(ConfigurationError):
            SweepExecutor(jobs=2, timeout=0.0)
        with pytest.raises(ConfigurationError):
            SweepExecutor(jobs=2, on_error="explode")

    def test_capped_exponential_edge_cases(self):
        assert capped_exponential(0.0, 5, 1.0) == 0.0
        assert capped_exponential(-1.0, 5, 1.0) == 0.0
        assert capped_exponential(1e-5, 2000, 0.5) == 0.5
        assert capped_exponential(1e300, 10, 7.0) == 7.0  # inf intermediate

    def test_stats_summary_mentions_recovery(self):
        from repro.experiments.sweep import SweepStats

        stats = SweepStats(label="s", jobs=2, n_cells=3, wall_s=1.0,
                           retries=2, pool_kills=1,
                           cell_errors={"bad": "poisoned"})
        assert "2 retries" in stats.summary()
        assert "1 pool kills" in stats.summary()


# -- the pool as an object its caller owns and keeps ------------------
def _pid(x):
    return os.getpid()


def _wait_for_file(x, path, started):
    """Say so in ``started``, then park until ``path`` exists (a gate
    another process can open)."""
    open(os.path.join(started, str(x)), "w").close()
    deadline = time.monotonic() + 30
    while not os.path.exists(path):
        assert time.monotonic() < deadline, f"{path} never appeared"
        time.sleep(0.01)
    return x


def _until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.fixture
def pool():
    from repro.experiments.sweep import WorkerPool

    pool = WorkerPool(2)
    yield pool
    pool.close()


class TestWorkerPool:
    def test_launch_forks_every_process_up_front(self, pool):
        assert pool.pids() == []  # an executor forks on demand
        pool.launch()
        launched = sorted(pool.pids())
        assert len(launched) == 2 and os.getpid() not in launched
        # three runs later the same processes are still the whole pool
        for _ in range(3):
            pids, stats = SweepExecutor(pool=pool).run(_cells(4, fn=_pid))
            assert set(pids.values()) <= set(launched)
            assert stats.jobs == 2 and stats.pool_kills == 0
        assert sorted(pool.pids()) == launched and pool.spawns == 1

    def test_a_single_cell_runs_in_the_pool_too(self, pool):
        pids, _ = SweepExecutor(pool=pool).run(_cells(1, fn=_pid))
        assert pids[(0,)] in pool.pids()
        # without a pool of the caller's, one cell is not worth a fork
        pids, _ = SweepExecutor(jobs=2).run(_cells(1, fn=_pid))
        assert pids[(0,)] == os.getpid()

    def test_pooled_results_match_serial(self, pool):
        serial, _ = SweepExecutor(jobs=1).run(_cells(6))
        assert SweepExecutor(pool=pool).run(_cells(6))[0] == serial

    def test_a_worker_that_died_idle_is_nobodys_fault(self, pool):
        serial, _ = SweepExecutor(jobs=1).run(_cells(4))
        pool.launch()
        victim = pool.pids()[0]
        os.kill(victim, signal.SIGKILL)
        assert _until(lambda: victim not in pool.pids())
        time.sleep(0.1)  # the executor notices the death on its own thread
        results, stats = SweepExecutor(pool=pool).run(_cells(4))
        assert results == serial
        assert (stats.pool_kills, stats.retries) == (1, 0)
        assert pool.spawns == 2

    def test_killed_worker_costs_the_next_run_nothing(self, pool, tmp_path):
        cells = _cells(3, fn=_kill_once, flag_dir=str(tmp_path))
        _, stats = SweepExecutor(pool=pool).run(cells)
        assert stats.pool_kills >= 1
        spawns = pool.spawns
        _, stats = SweepExecutor(pool=pool).run(_cells(3))
        assert stats.pool_kills == 0 and pool.spawns == spawns

    def test_close_during_a_run_ends_it_without_a_respawn(self, pool, tmp_path):
        import threading

        from repro.experiments.sweep import PoolClosedError

        gate = str(tmp_path / "never")
        started = tmp_path / "started"
        started.mkdir()
        cells = _cells(2, fn=_wait_for_file, path=gate, started=str(started))
        outcome = []

        def run():
            try:
                SweepExecutor(pool=pool, on_error="record").run(cells)
            except PoolClosedError as exc:
                outcome.append(exc)

        runner = threading.Thread(target=run)
        runner.start()
        # both cells in flight: two forked processes are not enough, the
        # run may still be about to submit the second cell
        assert _until(lambda: len(os.listdir(started)) == 2)
        assert len(pool.pids()) == 2
        busy = pool.pids()
        pool.close()
        runner.join(timeout=10)
        assert not runner.is_alive()
        assert len(outcome) == 1 and "2 cell(s) unfinished" in str(outcome[0])
        assert pool.closed and pool.spawns == 1 and pool.pids() == []
        assert _until(lambda: not any(_alive(pid) for pid in busy))
        with pytest.raises(PoolClosedError):
            SweepExecutor(pool=pool).run(_cells(2))

    def test_a_private_pool_is_gone_when_run_returns(self):
        import multiprocessing

        SweepExecutor(jobs=2).run(_cells(4))
        # killed and joined by close(); the executor's own thread reaps
        # them too, and for an instant after it wins that race the
        # bookkeeping active_children() reads still says "alive"
        assert _until(lambda: multiprocessing.active_children() == [], 2.0)

    def test_pool_size_is_validated(self):
        from repro.experiments.sweep import WorkerPool

        with pytest.raises(ConfigurationError):
            WorkerPool(0)


def _alive(pid):
    """Running (not a zombie waiting for its parent to reap it)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False
