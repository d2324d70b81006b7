"""Multi-process sweep execution with a deterministic merge.

Every experiment in this repository — the Figure 9 grid, the perf
regression gate, the chaos sweep, the equivalence check — is a grid of
fully *independent* simulation cells: each cell builds a fresh cluster,
runs one deterministic simulation, and returns pure data. Nothing
couples the cells at runtime, so they can be dispatched to a process
pool instead of iterated — the same lesson the source paper draws for
the chemistry kernels themselves (independent work units are submitted
to a runtime, not walked in DO loops).

:class:`SweepExecutor` fans a list of :class:`SweepCell` out over a
``concurrent.futures.ProcessPoolExecutor`` and merges the results
deterministically:

- every cell carries a unique, ordered **key**;
- results are collected as futures complete (wall-clock order) but
  **merged by key in submission order**, so the merged mapping is
  independent of scheduling;
- each cell runs a module-level function on picklable arguments and
  returns picklable data, and each cell's simulation seeds itself — no
  state flows between cells.

Consequently ``jobs=8`` output is *byte-identical* to the serial sweep:
BENCH JSON files, :class:`~repro.experiments.fig9.Fig9Result` tables,
and the golden digests are all unchanged. ``jobs=1`` (the default),
given no ``pool`` of the caller's, forks nothing and is exactly the old
nested loop.

The processes belong to a :class:`WorkerPool`, not to a sweep. A CLI
sweep makes a private one for the length of ``run()`` and closes it; a
long-lived caller (the job service) makes one per scheduler worker,
launches its processes before it starts any thread, and passes it to
every ``SweepExecutor(pool=...)`` that worker builds, so no job pays a
fork. Either way there is one pooled code path. Pool workers ignore
SIGINT (their owner decides when they stop) and exit on their own when
the process that made them is gone.

The pooled path is **self-healing**. A worker process dying (OOM kill,
segfault in an extension, a stray ``os._exit``) breaks the whole
``ProcessPoolExecutor``; instead of aborting the sweep, the executor
respawns the pool, requeues every in-flight cell, and re-runs the
suspects one at a time so the culprit is identified exactly. A cell
that demonstrably kills workers ``MAX_POOL_KILLS`` times is quarantined
as **poisoned**. Each respawn is paced by capped exponential backoff
(``BASE_DELAY_S`` doubling up to ``MAX_DELAY_S``) — the same discipline
:meth:`repro.sim.faults.FaultPlan.backoff` applies to simulated
retransmits, at the host level. There is no per-cell deadline: a cell
is a deterministic simulation, so one that overran once would overrun
on every attempt. ``on_error`` selects the
final fate of an unrunnable cell: ``"raise"`` (default — batch runs
fail loudly) or ``"record"``, which degrades the sweep to a partial
result by storing a :class:`CellError` under the cell's key while every
healthy cell's value stays byte-identical to the serial sweep.

Wall-clock numbers (per-cell and whole-sweep) are recorded in
:class:`SweepStats` for progress lines and the sweep summary; they are
**never** mixed into cell results, which stay purely virtual-time.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.util.backoff import capped_exponential
from repro.util.errors import ConfigurationError, ReproError

__all__ = [
    "BASE_DELAY_S",
    "MAX_DELAY_S",
    "MAX_POOL_KILLS",
    "SweepCell",
    "CellError",
    "PoisonedCellError",
    "PoolClosedError",
    "WorkerPool",
    "SweepStats",
    "SweepExecutor",
    "default_progress",
]


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of sweep work.

    ``fn`` must be a module-level callable (picklable by reference) and
    ``kwargs`` must contain only picklable values; ``key`` identifies
    the cell in the merged result mapping and fixes its merge order.
    """

    key: tuple
    fn: Callable[..., Any]
    kwargs: dict = field(default_factory=dict)

    def label(self) -> str:
        return "/".join(str(part) for part in self.key)


#: host seconds slept before re-execution number ``attempt + 1``:
#: ``BASE_DELAY_S * 2**attempt`` clamped to ``MAX_DELAY_S``
BASE_DELAY_S = 0.05
MAX_DELAY_S = 1.0
#: a cell that breaks the worker pool this many times (the last one
#: solo, so the culprit is certain) is poisoned and never run again
MAX_POOL_KILLS = 2


def _backoff(attempt: int) -> float:
    return capped_exponential(BASE_DELAY_S, attempt, MAX_DELAY_S)


@dataclass(frozen=True)
class CellError:
    """Explicit per-cell failure record for a degraded (partial) sweep.

    Stored under the cell's key in the merged results when
    ``on_error="record"``; ``kind`` is ``"poisoned"`` (the cell killed
    workers ``MAX_POOL_KILLS`` times) or ``"exception"`` (the cell
    function raised).
    """

    key: tuple
    label: str
    kind: str
    message: str
    attempts: int

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
        }


class PoisonedCellError(ReproError):
    """A sweep cell killed its worker process ``MAX_POOL_KILLS`` times."""


class PoolClosedError(ReproError):
    """The :class:`WorkerPool` a sweep was running on was closed under it."""


@dataclass
class SweepStats:
    """Wall-clock accounting for one sweep (diagnostics only).

    Kept strictly apart from the cell results so the deterministic
    artifacts (BENCH JSON, tables, reports of the runs themselves)
    carry no host timing.
    """

    label: str
    jobs: int
    n_cells: int = 0
    wall_s: float = 0.0
    #: cell label -> host seconds spent inside the cell function
    cell_wall_s: dict[str, float] = field(default_factory=dict)
    #: cell re-executions after worker death
    retries: int = 0
    #: worker-pool respawns after a break
    pool_kills: int = 0
    #: cell label -> error kind, for cells that ended in a CellError
    cell_errors: dict[str, str] = field(default_factory=dict)

    def summary(self) -> str:
        busy = sum(self.cell_wall_s.values())
        concurrency = busy / self.wall_s if self.wall_s > 0 else 1.0
        line = (
            f"{self.label}: {self.n_cells} cells in {self.wall_s:.2f}s wall "
            f"with {self.jobs} job(s) (aggregate cell time {busy:.2f}s, "
            f"mean concurrency {concurrency:.2f}x)"
        )
        if self.retries or self.pool_kills or self.cell_errors:
            line += (
                f" [{self.retries} retries, {self.pool_kills} pool kills, "
                f"{len(self.cell_errors)} failed cells]"
            )
        return line


def default_progress(line: str) -> None:
    """Progress sink for the CLI: stderr, so stdout stays deterministic."""
    print(line, file=sys.stderr, flush=True)


def _run_cell(cell: SweepCell) -> tuple[Any, float]:
    """Execute one cell, returning (result, host seconds)."""
    start = time.perf_counter()
    value = cell.fn(**cell.kwargs)
    return value, time.perf_counter() - start


def _run_cell_in_pool(cell: SweepCell) -> tuple[Any, float, int]:
    """What a pool process runs: the cell, and which process that was."""
    return (*_run_cell(cell), os.getpid())


def _pool_worker_init() -> None:
    """Runs first in every pool process: its owner decides its life.

    SIGINT is ignored, so a Ctrl-C reaches the owner alone and the owner
    closes its pool. A thread blocks on the parent's sentinel (a pipe
    only the parent holds the write end of, set up by
    ``multiprocessing``) and exits the process when the parent is gone,
    however it went: a SIGKILLed daemon must not leave children holding
    its listening socket and its journal.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = multiprocessing.parent_process()

    def watch() -> None:
        parent.join()
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()


class WorkerPool:
    """A ``ProcessPoolExecutor`` and the one place that makes, replaces
    and kills it.

    ``size`` processes, forked on demand unless :meth:`launch` made them
    all up front. The pool serves one :meth:`SweepExecutor.run` at a
    time (that is what lets a run attribute a dead worker to a cell);
    between runs its processes stay warm. ``close()`` may come from
    another thread while a run is in flight: the run ends with
    :class:`PoolClosedError` instead of respawning.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ConfigurationError(f"pool size must be >= 1, got {size}")
        self.size = size
        self.closed = False
        #: executors made so far: the first one plus one per respawn
        self.spawns = 0
        self._lock = threading.Lock()
        self._executor = self._spawn()

    def _spawn(self) -> ProcessPoolExecutor:
        self.spawns += 1
        return ProcessPoolExecutor(
            max_workers=self.size, initializer=_pool_worker_init
        )

    def launch(self) -> None:
        """Fork all ``size`` processes now, from the calling thread.

        For a caller that is about to start threads: a process forked
        later copies whatever locks those threads hold. Depending on
        the CPython version an executor forks everything at its first
        submit or one process per submit that finds no worker idle, so
        each of ``size`` tasks blocks reading a pipe until all are in.
        """
        if multiprocessing.get_start_method() != "fork":
            return  # a spawned process copies no lock: on demand is fine
        gate_r, gate_w = os.pipe()
        try:
            held = [self.submit(os.read, gate_r, 1) for _ in range(self.size)]
            os.write(gate_w, b"g" * self.size)
            for future in held:
                future.result()
        finally:
            os.close(gate_r)
            os.close(gate_w)

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        with self._lock:
            if self.closed:
                raise PoolClosedError("worker pool is closed")
            return self._executor.submit(fn, *args)

    def respawn(self) -> None:
        """Kill every process, running cell or not, and start over."""
        with self._lock:
            if self.closed:
                raise PoolClosedError("worker pool is closed")
            self._terminate()
            self._executor = self._spawn()

    def close(self) -> None:
        with self._lock:
            if not self.closed:
                self.closed = True
                self._terminate()

    def pids(self) -> list[int]:
        """The live pool processes."""
        return [p.pid for p in self._processes() if p.is_alive()]

    def _processes(self) -> list:
        # private but stable across the supported CPython versions; if it
        # ever vanishes a shutdown still proceeds, just without the hard kill
        return list((getattr(self._executor, "_processes", None) or {}).values())

    def _terminate(self) -> None:
        """Hard-stop the executor, killing workers stuck in a cell body.

        ``shutdown(cancel_futures=True)`` alone only drops *queued*
        work; a worker wedged inside a cell would keep the process —
        and interpreter exit — hostage, so the worker processes are
        killed first, and joined with a bound.
        """
        processes = self._processes()
        for process in processes:
            try:
                process.kill()
            except Exception:  # pragma: no cover - already dead
                pass
        self._executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.join(timeout=5.0)
            except Exception:  # pragma: no cover - defensive
                pass


class SweepExecutor:
    """Dispatch independent sweep cells, merge results by key.

    Parameters
    ----------
    jobs:
        Worker process count. ``1`` runs serially in-process (no pool,
        no pickling), as does a sweep of a single cell; ``>1`` runs on
        a private :class:`WorkerPool` that lives as long as ``run()``.
        ``None`` or ``0`` means one worker per CPU.
    pool:
        A :class:`WorkerPool` the caller owns and keeps. Every cell,
        a single one included, then runs in its processes (``jobs`` is
        its size), and ``run()`` raises :class:`PoolClosedError` if the
        owner closes it meanwhile.
    progress:
        Optional callable receiving one human-readable line per
        finished cell (wall-clock completion order).
    label:
        Name used in progress lines and the stats summary.
    on_error:
        ``"raise"`` (default) propagates the first unrunnable cell —
        poisoned or raising — as an exception; ``"record"``
        stores a :class:`CellError` under the cell's key instead, so
        the sweep completes as a partial result with every healthy cell
        intact.
    on_cell_done:
        Optional structured completion callback, invoked exactly once
        per cell when its fate is final: ``on_cell_done(cell, ok,
        wall_s, pid)`` with ``ok=True`` for a computed value (``wall_s``
        is the host seconds inside the cell function, ``pid`` the
        process it ran in) and ``ok=False`` (``pid=None``) for a
        recorded :class:`CellError`. Unlike parsing ``progress``
        lines, this never double-counts retried cells and survives
        progress-format changes — it is the contract the service's
        per-cell accounting rides on.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        progress: Optional[Callable[[str], None]] = None,
        label: str = "sweep",
        *,
        on_error: str = "raise",
        on_cell_done: Optional[
            Callable[[SweepCell, bool, float, Optional[int]], None]
        ] = None,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        if pool is not None:
            jobs = pool.size
        elif jobs is None or jobs == 0:
            jobs = os.cpu_count() or 1
        if jobs < 0:
            raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
        if on_error not in ("raise", "record"):
            raise ConfigurationError(
                f"on_error must be 'raise' or 'record', got {on_error!r}"
            )
        self.jobs = jobs
        self.progress = progress
        self.label = label
        self.on_error = on_error
        self.on_cell_done = on_cell_done
        self.pool = pool

    # ------------------------------------------------------------------
    def run(self, cells: Sequence[SweepCell]) -> tuple[dict[tuple, Any], SweepStats]:
        """Execute every cell; returns ``(results, stats)``.

        ``results`` maps ``cell.key`` to the cell function's return
        value, with keys in **submission order** regardless of which
        worker finished first — the deterministic-merge contract. With
        ``on_error="record"`` a key may map to a :class:`CellError`
        instead of a value.
        """
        cells = list(cells)
        keys = [cell.key for cell in cells]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ConfigurationError(f"duplicate sweep cell keys: {dupes}")
        stats = SweepStats(label=self.label, jobs=self.jobs, n_cells=len(cells))
        start = time.perf_counter()
        if self.pool is not None:
            by_key = self._run_pool(cells, stats, self.pool)
        elif self.jobs == 1 or len(cells) <= 1:
            by_key = self._run_serial(cells, stats)
        else:
            pool = WorkerPool(min(self.jobs, len(cells)))
            try:
                by_key = self._run_pool(cells, stats, pool)
            finally:
                pool.close()
        stats.wall_s = time.perf_counter() - start
        # the merge: submission order, not completion order
        results = {key: by_key[key] for key in keys}
        return results, stats

    # ------------------------------------------------------------------
    def _note(self, done: int, total: int, cell: SweepCell, wall: float) -> None:
        if self.progress is not None:
            width = len(str(total))
            self.progress(
                f"[{done:{width}d}/{total}] {self.label} {cell.label()} "
                f"done in {wall:.2f}s"
            )

    def _note_event(self, message: str) -> None:
        if self.progress is not None:
            self.progress(f"{self.label}: {message}")

    def _cell_done(
        self, cell: SweepCell, ok: bool, wall: float, pid: Optional[int]
    ) -> None:
        if self.on_cell_done is not None:
            self.on_cell_done(cell, ok, wall, pid)

    def _run_serial(self, cells, stats) -> dict[tuple, Any]:
        by_key: dict[tuple, Any] = {}
        pid = os.getpid()
        for done, cell in enumerate(cells, start=1):
            try:
                value, wall = _run_cell(cell)
            except Exception as exc:
                if self.on_error == "raise":
                    raise
                self._record_error(by_key, stats, cell, "exception", str(exc), 1)
                continue
            by_key[cell.key] = value
            stats.cell_wall_s[cell.label()] = wall
            self._note(done, len(cells), cell, wall)
            self._cell_done(cell, True, wall, pid)
        return by_key

    # -- pooled path with crash recovery ---------------------------------
    def _record_error(
        self, by_key, stats: SweepStats, cell: SweepCell, kind: str,
        message: str, attempts: int,
    ) -> None:
        """Finalize one unrunnable cell: record it, or raise."""
        if self.on_error == "raise":
            if kind == "poisoned":
                raise PoisonedCellError(
                    f"cell {cell.label()} killed its worker process "
                    f"{attempts} times: {message}"
                )
            raise  # re-raise the active exception untouched
        error = CellError(
            key=cell.key, label=cell.label(), kind=kind,
            message=message, attempts=attempts,
        )
        by_key[cell.key] = error
        stats.cell_errors[cell.label()] = kind
        self._note_event(f"cell {cell.label()} failed ({kind}): {message}")
        self._cell_done(cell, False, 0.0, None)

    def _run_pool(self, cells, stats, pool: WorkerPool) -> dict[tuple, Any]:
        by_key: dict[tuple, Any] = {}
        total = len(cells)
        order = {cell.key: i for i, cell in enumerate(cells)}
        #: worker-pool breaks each cell was in flight for
        kills = dict.fromkeys(order, 0)
        queue: deque[SweepCell] = deque(cells)
        #: suspects after a pool break, probed one at a time so a
        #: repeat break names the culprit with certainty
        solo: deque[SweepCell] = deque()
        inflight: dict[Future, SweepCell] = {}
        done_count = 0

        def submit(cell: SweepCell) -> bool:
            """False: the pool was found broken before it took the cell."""
            try:
                future = pool.submit(_run_cell_in_pool, cell)
            except BrokenProcessPool:
                return False
            inflight[future] = cell
            return True

        def respawn() -> None:
            inflight.clear()
            stats.pool_kills += 1
            pool.respawn()

        try:
            while queue or solo or inflight:
                # fill the window; while suspects are pending, run them
                # alone (an empty window) so breaks are attributable
                source, window = (solo, 1) if solo else (queue, pool.size)
                while source and len(inflight) < window:
                    if submit(source[0]):
                        source.popleft()
                    elif inflight:
                        break  # the in-flight cells come back as victims
                    else:
                        # a worker died while the pool sat idle between
                        # runs: no cell was there to blame
                        respawn()
                finished, _ = wait(set(inflight), return_when=FIRST_COMPLETED)
                if pool.closed:
                    # the owner killed the processes: whatever the futures
                    # say now is its doing, not a cell's
                    raise PoolClosedError(
                        f"{self.label}: worker pool closed with "
                        f"{total - done_count} cell(s) unfinished"
                    )
                victims: list[SweepCell] = []
                for future in finished:
                    cell = inflight.pop(future)
                    try:
                        value, wall, pid = future.result()
                    except BrokenProcessPool:
                        victims.append(cell)
                    except Exception as exc:
                        done_count += 1
                        self._record_error(
                            by_key, stats, cell, "exception", str(exc), 1
                        )
                    else:
                        done_count += 1
                        by_key[cell.key] = value
                        stats.cell_wall_s[cell.label()] = wall
                        self._note(done_count, total, cell, wall)
                        self._cell_done(cell, True, wall, pid)
                if victims:
                    # worker death: every in-flight cell is a suspect
                    suspects = victims + list(inflight.values())
                    suspects.sort(key=lambda c: order[c.key])
                    respawn()
                    worst = 0
                    for cell in suspects:
                        if len(suspects) == 1:
                            # the break is attributable: this cell (and
                            # only this cell) was in flight
                            kills[cell.key] += 1
                        worst = max(worst, kills[cell.key], 1)
                        if kills[cell.key] >= MAX_POOL_KILLS:
                            done_count += 1
                            self._record_error(
                                by_key, stats, cell, "poisoned",
                                "worker process died while this cell "
                                "(and only this cell) was running",
                                kills[cell.key],
                            )
                        else:
                            stats.retries += 1
                            solo.append(cell)
                    self._note_event(
                        f"worker pool died with {len(suspects)} cell(s) in "
                        f"flight; respawned, re-running suspects solo"
                    )
                    time.sleep(_backoff(worst - 1))
        finally:
            if inflight and not pool.closed:
                # leaving on an error: hand the pool back empty, not with
                # this run's cells still computing in it
                pool.respawn()
        return by_key
