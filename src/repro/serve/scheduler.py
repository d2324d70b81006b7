"""Admission queue and worker pool: where jobs meet the executor pool.

The scheduler is the control plane of the service — the same
listener/worker split TaskTorrent and DuctTeip use to keep admission
responsive while executors churn: HTTP threads only ever touch the
in-memory job table under a lock, while ``workers`` worker threads
drain the queue *concurrently*. A worker thread does not simulate: it
owns one :class:`~repro.experiments.sweep.WorkerPool` of
``max(1, pool_jobs // workers)`` processes from :meth:`JobScheduler.start`
(which forks them before any thread exists) to :meth:`JobScheduler.stop`,
and every cell of every job it picks, a one-cell ``point`` job included,
runs there through the self-healing
:class:`~repro.experiments.sweep.SweepExecutor`; one job at a time, so a
dead pool process is always that job's doing. ``pool_jobs=1`` means no
pools: cells run in the worker threads, under the interpreter lock the
HTTP threads need.

Admission is FIFO with aging priorities: a free worker picks the
queued job with the highest *effective* priority — the submitted
``priority`` plus one point per ``AGING_S`` seconds spent waiting — so
an urgent small job overtakes a huge sweep, but a low-priority job
left waiting ages its way to the front instead of starving.

Robustness invariants:

- every state transition is journaled *before* it is acknowledged;
- the job table is the result cache: a submission whose digest has a
  queued, running or ``done`` job *is* that job, and a hit on a ``done``
  one writes nothing; a job with poisoned/timed-out cells is degraded
  to ``partial`` (explicit per-cell error records, healthy cells
  byte-identical to a clean run) or ``failed`` and frees its digest in
  the lock hold that makes that status final;
- below the job table, every computed cell of a ``done`` or ``partial``
  job answers its :func:`~repro.serve.jobs.cell_digest` in any later
  job: such a cell is not dispatched, it reports as ``cached``, and the
  job's payload is byte-identical to a cold run's (error cells and
  ``failed`` jobs answer nothing);
- new work passes the circuit breaker, which sheds load with a
  retry-after hint when the queue saturates or jobs keep failing;
- per-cell completion is reported through the executor's structured
  ``on_cell_done`` callback — never by parsing progress lines — and
  recorded as a per-job event stream that the daemon's
  ``GET /jobs/<id>/events`` long-poll serves incrementally.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

from repro.experiments.sweep import (
    PoolClosedError,
    SweepCell,
    SweepExecutor,
    WorkerPool,
)
from repro.obs.registry import NULL_METRICS, MetricsRegistry
from repro.serve.breaker import Admission, CircuitBreaker
from repro.serve.jobs import (
    JobSpec,
    build_cells,
    cell_digest,
    job_digest,
    serialize_results,
)
from repro.serve.journal import FINAL_STATES, Journal, RecoveredState
from repro.util.errors import ConfigurationError, ReproError

__all__ = ["JobRecord", "JobScheduler", "SubmissionRejected"]


#: how long ``stop()`` waits for the worker threads, all together
_STOP_JOIN_S = 1.0

#: seconds of waiting that raise a queued job's priority by one point
AGING_S = 30.0


class SubmissionRejected(ReproError):
    """The breaker shed this submission; retry after ``retry_after_s``."""

    def __init__(self, admission: Admission) -> None:
        super().__init__(
            f"submission rejected ({admission.reason}); "
            f"retry after {admission.retry_after_s}s"
        )
        self.reason = admission.reason
        self.retry_after_s = admission.retry_after_s


@dataclass
class JobRecord:
    """One job's live state in the scheduler's table."""

    job_id: str
    spec: JobSpec
    digest: str
    status: str  # queued | running | done | partial | failed
    cells_total: int = 0
    cells_done: int = 0
    result: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    #: scheduling metadata: submitted priority, aged while queued
    priority: int = 0
    enqueued_at: float = 0.0
    enqueue_seq: int = 0
    #: structured progress stream served by ``GET /jobs/<id>/events``
    events: list = field(default_factory=list)

    def effective_priority(self, now: float) -> float:
        """Submitted priority plus one point per ``AGING_S`` waited."""
        return self.priority + max(now - self.enqueued_at, 0.0) / AGING_S

    def to_status_dict(self) -> dict:
        d = {
            "job_id": self.job_id,
            "kind": self.spec.kind,
            "status": self.status,
            "digest": self.digest,
        }
        if self.priority:
            d["priority"] = self.priority
        if self.cells_total:
            d["cells_total"] = self.cells_total
            d["cells_done"] = self.cells_done
        if self.errors:
            d["error_cells"] = sorted(self.errors)
        return d

    def to_result_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "status": self.status,
            "result": self.result,
            "errors": self.errors,
        }


class JobScheduler:
    """Job table + aged-priority queue + N worker threads, each with
    its own warm process pool (none when ``pool_jobs`` is 1)."""

    def __init__(
        self,
        journal: Journal,
        breaker: Optional[CircuitBreaker] = None,
        metrics: Optional[MetricsRegistry] = None,
        workers: int = 1,
        pool_jobs: int = 2,
        cell_timeout: Optional[float] = None,
        retries: int = 2,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        self.journal = journal
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            metrics=self.metrics
        )
        self.workers = workers
        self.pool_jobs = pool_jobs
        self.cell_timeout = cell_timeout
        self.retries = retries
        self.jobs: dict[str, JobRecord] = {}
        self._queue: list[str] = []
        #: digest -> the id of its queued, running or ``done`` job
        self._by_digest: dict[str, str] = {}
        #: cell digest -> that cell's value inside a finished job's
        #: ``result`` (the same object, not a copy)
        self._cells: dict[str, object] = {}
        #: submissions answered by a ``done`` job / all others, the
        #: ``done`` jobs (each answers its own digest, and stays), and
        #: cells answered by the cell index instead of a pool
        self.hits = self.misses = self.entries = self.cell_hits = 0
        self._running: set[str] = set()
        #: one per worker thread, made and closed with the scheduler
        self._pools: list[WorkerPool] = []
        self._enqueue_seq = 0
        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        #: notified on every per-job event append (long-poll waiters)
        self._events_cond = threading.Condition(self._lock)
        self._stop = False
        self._threads: list[threading.Thread] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Fork every pool process, then start the worker threads (and
        only then may the caller start its HTTP threads): a process
        forked later would copy whatever lock (journal, registry, job
        table) another thread held at that instant."""
        if self.pool_jobs > 1:
            size = max(1, self.pool_jobs // self.workers)
            self._pools = [WorkerPool(size) for _ in range(self.workers)]
            for pool in self._pools:
                pool.launch()
            self.metrics.inc("serve.pool.spawns", value=float(self.workers))
            self._pool_gauge()
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._worker, name=f"repro-serve-worker-{i}",
                args=(self._pools[i] if self._pools else None,),
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        """Graceful stop: mark every in-flight job for resumption, kill
        the pool processes, wait (briefly) for the worker threads.

        The journal gets a ``job_requeued`` line for each job caught
        mid-run, so the next boot re-executes them; queued jobs need no
        extra event (submitted-but-not-finished already replays as
        pending). A worker whose pool is closed under it abandons its
        job; one still inside a cell of its own (``pool_jobs=1``) cannot
        be interrupted, so the join is bounded.
        """
        with self._wake:
            self._stop = True
            for job_id in sorted(self._running):
                self.journal.append("job_requeued", job_id=job_id)
            self._wake.notify_all()
            self._events_cond.notify_all()
        for pool in self._pools:
            pool.close()
        deadline = time.monotonic() + _STOP_JOIN_S
        for thread in self._threads:
            thread.join(timeout=max(deadline - time.monotonic(), 0.0))

    def recover(self, state: RecoveredState) -> None:
        """Adopt a journal replay: pending jobs to the queue, finished
        ones served straight from their records, a ``done`` one answering
        its digest again and a ``done`` or ``partial`` one its cells."""
        with self._lock:
            for job_id, job in state.jobs.items():
                spec = JobSpec.from_dict(job["spec"])
                record = JobRecord(
                    job_id, spec, job["digest"], job["status"],
                    result=job.get("result", {}), errors=job.get("errors", {}),
                    priority=spec.priority,
                )
                self.jobs[job_id] = record
                if record.status in ("queued", "running"):
                    record.status = "queued"
                    self._enqueue(record)
                if record.status in ("queued", "done"):
                    self._by_digest.setdefault(record.digest, job_id)
                self.entries += record.status == "done"
                if record.result:
                    try:
                        self._index(record, build_cells(spec))
                    except ConfigurationError:
                        pass  # admitted under older rules: its cells no longer build
            self._gauges()
            self.metrics.gauge_set("serve.cache.entries", float(self.entries))
            self._wake.notify_all()

    # ------------------------------------------------------------------
    # admission (called from HTTP threads)
    # ------------------------------------------------------------------
    def submit(self, kind: str, params: Optional[dict] = None) -> JobRecord:
        """Admit one submission and return its job; raises
        :class:`SubmissionRejected` when the breaker sheds it."""
        return self._admit(kind, params)[0]

    def admit(self, kind: str, params: Optional[dict] = None) -> dict:
        """The 202 body of one submission; a hit's is its ``done`` job's
        ``/result`` body (final: safe to read unlocked) plus ``cached``."""
        record, hit = self._admit(kind, params)
        if hit:
            return {**record.to_result_dict(), "cached": True}
        return {"job_id": record.job_id, "status": record.status,
                "cached": False}

    def _admit(self, kind: str, params: Optional[dict]) -> tuple[JobRecord, bool]:
        """One admission path: a digest's queued, running or ``done``
        job answers it (a hit when ``done``: nothing is minted, journaled
        or pushed); only new work meets the breaker and the journal."""
        spec = JobSpec.normalize(kind, params)
        digest = job_digest(spec)
        with self._lock:
            self.metrics.inc("serve.jobs.submitted", kind=kind)
            record = self.jobs.get(self._by_digest.get(digest))
            if record is not None and record.status == "done":
                self.hits += 1
                self.metrics.inc("serve.cache.hits")
                return record, True
            self.misses += 1
            self.metrics.inc("serve.cache.misses")
            if record is not None:
                if spec.priority > record.priority:
                    record.priority = spec.priority  # promote, never demote
                return record, False
            admission = self.breaker.admit(self._depth())
            if not admission.allowed:
                raise SubmissionRejected(admission)
            job_id = self.journal.reserve_id()
            record = JobRecord(
                job_id=job_id, spec=spec, digest=digest, status="queued",
                priority=spec.priority,
            )
            self.jobs[job_id] = record
            self.journal.append(
                "job_submitted", job_id=job_id, digest=digest,
                spec=spec.to_dict(),
            )
            self._enqueue(record)
            self._by_digest[digest] = job_id
            self._gauges()
            self._wake.notify_all()
            return record, False

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self.jobs.get(job_id)

    def overview(self) -> dict:
        with self._lock:
            return {
                "queue_depth": self._depth(),
                "running": sorted(self._running),
                "workers": self.workers,
                "jobs": [r.to_status_dict() for r in self.jobs.values()],
                "breaker": self.breaker.to_dict(),
                "cache": {"entries": self.entries, "hits": self.hits,
                          "misses": self.misses, "cell_hits": self.cell_hits},
            }

    # ------------------------------------------------------------------
    # per-job event stream (long-polled by the daemon's /events route)
    # ------------------------------------------------------------------
    def _push_event(self, record: JobRecord, event: dict) -> None:
        with self._events_cond:
            event = {"seq": len(record.events) + 1, **event}
            record.events.append(event)
            self._events_cond.notify_all()

    def events_since(
        self, job_id: str, cursor: int, wait_s: float = 0.0
    ) -> tuple[list[dict], bool]:
        """Events past ``cursor`` for one job, long-poll style.

        Blocks up to ``wait_s`` for new events when none are pending.
        Returns ``(events, final)`` — ``final`` is True once the job
        has reached a terminal state *and* the caller has seen every
        event, i.e. the stream is complete and the connection can
        close. Unknown jobs return ``([], True)``.
        """
        deadline = time.monotonic() + max(wait_s, 0.0)
        with self._events_cond:
            while True:
                record = self.jobs.get(job_id)
                if record is None:
                    return [], True
                fresh = [dict(e) for e in record.events[cursor:]]
                final = record.status in FINAL_STATES and not fresh
                if fresh or final or self._stop:
                    return fresh, final or self._stop
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return [], False
                self._events_cond.wait(remaining)

    # ------------------------------------------------------------------
    # worker loop
    # ------------------------------------------------------------------
    def _enqueue(self, record: JobRecord) -> None:
        self._enqueue_seq += 1
        record.enqueue_seq = self._enqueue_seq
        record.enqueued_at = time.monotonic()
        self._queue.append(record.job_id)

    def _pick_locked(self) -> str:
        """Pop the queued job with the highest effective priority.

        Ties (equal submitted priority) resolve FIFO because the
        longer-waiting job has aged strictly more; distinct priorities
        resolve by aged priority, so a big sweep cannot indefinitely
        shadow a later small job and vice versa.
        """
        now = time.monotonic()
        best = max(
            self._queue,
            key=lambda job_id: (
                self.jobs[job_id].effective_priority(now),
                -self.jobs[job_id].enqueue_seq,
            ),
        )
        self._queue.remove(best)
        return best

    def _depth(self) -> int:
        return len(self._queue) + len(self._running)

    def _gauges(self) -> None:
        self.metrics.gauge_set("serve.queue.depth", float(len(self._queue)))
        self.metrics.gauge_set("serve.jobs.inflight", float(len(self._running)))

    def _pool_gauge(self) -> None:
        """Live pool processes over all workers, as of the last job end."""
        live = sum(len(pool.pids()) for pool in self._pools)
        self.metrics.gauge_set("serve.pool.processes", float(live))

    def _on_cell_done(
        self, record: JobRecord, cell: SweepCell, ok: bool, wall: float,
        pid: Optional[int], cached: bool = False,
    ) -> None:
        """Structured per-cell completion from the executor — exactly
        once per cell, retries and progress-format changes immaterial —
        or from the cell index (``cached``: no process, no wall time)."""
        with self._lock:
            record.cells_done += 1
            self._push_event(record, {
                "type": "cell", "cell": cell.label(), "ok": ok, "pid": pid,
                "wall_s": round(wall, 6), "cells_done": record.cells_done,
                "cells_total": record.cells_total, "cached": cached,
            })

    def _index(self, record: JobRecord, cells: Sequence[SweepCell]) -> None:
        """Let every computed cell of a finished job answer its digest
        (a ``result`` holds no error cell, and a ``failed`` job none)."""
        for cell in cells:
            label = cell.label()
            if label in record.result:
                self._cells.setdefault(cell_digest(cell), record.result[label])

    def _journal_or_abandon(self, event: str, **fields) -> bool:
        """Append unless a concurrent shutdown closed the journal.

        Graceful stop journals ``job_requeued`` for every in-flight job
        and may close the journal while a worker is still finishing; the
        worker's late transition is abandoned (False) instead of
        crashing the thread — replay re-runs the job, which the
        at-least-once semantics already absorb. A closed journal
        *outside* shutdown is still a hard error.
        """
        try:
            self.journal.append(event, **fields)
            return True
        except ValueError:
            if self._stop:
                return False
            raise

    def _worker(self, pool: Optional[WorkerPool]) -> None:
        while True:
            with self._wake:
                while not self._queue and not self._stop:
                    self._wake.wait()
                if self._stop:
                    return
                job_id = self._pick_locked()
                record = self.jobs[job_id]
                record.status = "running"
                self._running.add(job_id)
                self._gauges()
            if not self._journal_or_abandon("job_started", job_id=job_id):
                return
            self._push_event(record, {"type": "started"})
            try:
                self._execute(record, pool)
            except PoolClosedError:
                return  # stop() requeued this job for the next boot
            except Exception as exc:  # noqa: BLE001 - the loop must live
                self._finish(
                    record, "failed", {},
                    {"_job": {"kind": "exception", "message": str(exc),
                              "label": "_job", "attempts": 1}},
                )
            finally:
                with self._wake:
                    self._running.discard(job_id)
                    self._gauges()
                    self._pool_gauge()

    def _execute(self, record: JobRecord, pool: Optional[WorkerPool]) -> None:
        """Answer the indexed cells, run the rest in ``pool``, merge in
        cell order: the payload is the cold run's, byte for byte."""
        cells = build_cells(record.spec)
        digests = [cell_digest(cell) for cell in cells]
        with self._lock:
            record.cells_total = len(cells)
            record.cells_done = 0
            known = {cell.key: self._cells[digest]
                     for cell, digest in zip(cells, digests)
                     if digest in self._cells}
            if known:
                self.cell_hits += len(known)
                self.metrics.inc("serve.cache.cell_hits", value=float(len(known)))
        for cell in cells:
            if cell.key in known:
                self._on_cell_done(record, cell, True, 0.0, None, cached=True)
        executor = SweepExecutor(
            pool=pool,  # None (pool_jobs=1): the cells run in this thread
            label=record.job_id,
            timeout=self.cell_timeout,
            retries=self.retries,
            on_error="record",
            on_cell_done=partial(self._on_cell_done, record),
        )
        results, stats = executor.run([c for c in cells if c.key not in known])
        values, errors = serialize_results(cells, {**results, **known})
        with self._lock:
            if stats.retries:
                self.metrics.inc(
                    "serve.cells.retried", value=float(stats.retries)
                )
            if stats.pool_kills:  # each kill is followed by a respawn
                for name in ("serve.pool.kills", "serve.pool.spawns"):
                    self.metrics.inc(name, value=float(stats.pool_kills))
            poisoned = sum(
                1 for e in errors.values() if e["kind"] == "poisoned"
            )
            if poisoned:
                self.metrics.inc(
                    "serve.cells.poisoned", value=float(poisoned)
                )
        if not errors:
            status = "done"
        elif values:
            status = "partial"
        else:
            status = "failed"
        self._finish(record, status, values, errors, cells)

    def _finish(
        self, record: JobRecord, status: str, values: dict, errors: dict,
        cells: Sequence[SweepCell] = (),
    ) -> None:
        if not self._journal_or_abandon(
            "job_finished", job_id=record.job_id, status=status,
            result=values, errors=errors,
        ):
            return  # shutdown already requeued this job for the next boot
        with self._lock:
            record.status = status
            record.result = values
            record.errors = errors
            # leave _running in the same lock hold that makes the status
            # final: stop() requeues whatever it finds there, and the
            # compaction below runs outside the lock
            self._running.discard(record.job_id)
            if status == "done":
                self.entries += 1
                self.metrics.gauge_set("serve.cache.entries", float(self.entries))
                self.breaker.record_success()
            else:
                # and free the digest in it too: a resubmission is new
                # work from here on, never this job's degraded answer
                self._by_digest.pop(record.digest, None)
                self.breaker.record_failure()
            self._index(record, cells)
            self.metrics.inc("serve.jobs.completed", status=status)
            self._push_event(record, {"type": "finished", "status": status})
        # size-triggered compaction rides on the append that grew the
        # file; it folds finished payloads into one snapshot line
        try:
            self.journal.maybe_compact()
        except ValueError:
            if not self._stop:  # closed journal is only OK mid-shutdown
                raise
