"""The per-node scheduler: a priority ready-queue and worker threads.

"Task priorities are taken into account by the scheduler when a set of
available tasks are considered for execution, and they only have a
relative meaning" — the ready queue is a max-priority store with FIFO
tie-breaking over task rows (:class:`~repro.parsec.ptg.TaskGraph`),
keyed by each row's rank in its template's table of priorities. One
worker process per compute core pops a row, pays the per-task
scheduling overhead, runs the body through a
:class:`~repro.parsec.ptg.RunningTask` view, traces the span, and hands
completion back to the runtime. Tasks do not migrate between threads
once started (PaRSEC semantics the paper leans on for the locality
argument of variant v5).
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Optional

from repro.parsec.ptg import CLAIMED, DONE, STARTED, RunningTask, TaskGraph
from repro.parsec.taskclass import FlowMode, TaskContext
from repro.sim.queues import LifoStore, RankStore, Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parsec.runtime import ParsecRuntime
    from repro.parsec.stealing import StealAgent

__all__ = ["SchedulerPolicy", "NodeScheduler"]


def _rehomed(epochs: dict, row: int):
    """The abort predicate of one attempt: a crash re-homed ``row``
    (bumped its epoch) since the attempt started."""
    epoch = epochs.get(row)
    if epoch is None:  # never re-homed so far: the first bump aborts
        return lambda: row in epochs
    return lambda: epochs[row] != epoch


class SchedulerPolicy(str, Enum):
    """PaRSEC's scheduling disciplines, per objective function.

    "PaRSEC includes multiple task scheduling algorithms, each designed
    to maximize a different objective function, i.e., cache reuse, load
    balancing, etc." — PRIORITY is the default used for the paper's
    experiments; FIFO ignores priorities (fairness); LIFO pops the
    newest ready task (cache reuse).
    """

    PRIORITY = "priority"
    FIFO = "fifo"
    LIFO = "lifo"


class NodeScheduler:
    """Ready queues + workers for one node.

    With accelerators configured (``ClusterConfig.gpus_per_node > 0``),
    device-capable tasks (``TaskClass.accelerated``) are dispatched to
    a separate device ready-queue served by one more :meth:`_worker` per
    accelerator; each device task stages its inputs and outputs over
    the node's shared PCIe link — the hybrid execution path the paper's
    introduction motivates ("a robust path to exploit hybrid computer
    architectures").
    """

    def __init__(
        self,
        runtime: "ParsecRuntime",
        node,
        n_workers: int,
        policy: SchedulerPolicy = SchedulerPolicy.PRIORITY,
        n_gpus: int = 0,
    ) -> None:
        self.runtime = runtime
        graph = runtime.graph
        assert graph is not None  # launch() instantiates before scheduling
        #: the level's task state; the ready queues hold its rows
        self.graph: TaskGraph = graph
        #: each row's rank among the template's priorities (0 = highest)
        self._ranks = graph.template.ranks
        self._priorities = graph.template.priorities
        self.node = node
        self.engine = runtime.cluster.engine
        self.metrics = metrics = runtime.cluster.metrics
        self._m_enqueued = metrics.counter("sched.enqueued", policy=policy.value)
        self._m_priority = metrics.histogram("sched.task_priority")
        self._m_ready_hwm = metrics.gauge("sched.ready_depth.hwm", node=node.node_id)
        self._m_executed = metrics.counters("sched.tasks_executed", "cls")
        self._m_gpu_executed = metrics.counters("sched.gpu_tasks_executed", "cls")
        self._m_duration = metrics.histogram("sched.task_duration_s")
        self._m_stale = metrics.counter("steal.stale_skipped")
        self.policy = policy

        def make_queue(label: str):
            if policy is SchedulerPolicy.PRIORITY:
                return RankStore(self.engine, len(graph), name=f"{label}{node.node_id}")
            if policy is SchedulerPolicy.LIFO:
                return LifoStore(self.engine, name=f"{label}{node.node_id}")
            return Store(self.engine, name=f"{label}{node.node_id}")

        self.ready = make_queue("ready")
        self.gpu_ready = make_queue("gpu_ready") if n_gpus > 0 else None
        #: set by the runtime when a StealPolicy is active; workers
        #: notify it when they find the ready queue empty
        self.steal_agent: Optional["StealAgent"] = None
        #: one process per worker; a worker finds its own by index, to
        #: install the abort rule around each task body
        self._workers = [
            self.engine.process(
                self._worker(thread, thread),
                name=f"parsec.worker{node.node_id}.{thread}",
            )
            for thread in range(n_workers)
        ]
        gpu_row = runtime.cluster.cores_per_node + 1  # +1 skips the comm thread row
        for gpu in range(n_gpus):
            self._workers.append(
                self.engine.process(
                    self._worker(n_workers + gpu, gpu_row + gpu, gpu),
                    name=f"parsec.gpu{node.node_id}.{gpu}",
                )
            )

    def ready_depth(self) -> int:
        """Tasks currently queued (CPU + GPU ready stores)."""
        depth = len(self.ready)
        if self.gpu_ready is not None:
            depth += len(self.gpu_ready)
        return depth

    def drain(self) -> list[int]:
        """Empty the ready queues; used when this node's compute dies.

        Also abandons any getter events left behind by workers that were
        blocked on ``get()`` at crash time — otherwise a later ``put()``
        would hand a task to a corpse and silently lose it — and any
        waiter events those workers left parked on the node's local
        mutexes, so ``Resource.release()`` never grants a critical
        region to a corpse (the semaphore twin of the getter bug). NIC
        waiters are deliberately left alone: they belong to transfer
        processes, and in-flight protocol traffic survives a compute
        crash (RDMA-style fail-stop model).
        """
        drained: list[int] = []
        self.abandon_workers()
        for store in (self.ready, self.gpu_ready):
            if store is None:
                continue
            while True:
                ok, item = store.try_get()
                if not ok:
                    break
                drained.append(item)
        for mutex in self.node._mutexes.values():
            mutex.abandon_waiters()
        return drained

    def abandon_workers(self) -> None:
        """Abandon the workers parked on the ready queues: their node
        crashed or the runtime is finished, and a later ``put()`` must
        never be handed to them."""
        self.ready.abandon_getters()
        if self.gpu_ready is not None:
            self.gpu_ready.abandon_getters()

    def close(self) -> None:
        """End of the level (:meth:`ParsecRuntime.shutdown`): abandon and
        close the parked workers and let go of the runtime, so neither a
        worker's frame nor this scheduler keeps the level's graph alive."""
        self.abandon_workers()
        for worker in self._workers:
            worker.close()
        self.runtime = self.steal_agent = None

    def enqueue(self, row: int) -> None:
        """Make a task row available under the node's scheduling policy."""
        rank = self._ranks[row]
        queue = self.ready
        if self.gpu_ready is not None and self.graph.cls(row).accelerated:
            queue = self.gpu_ready
        queue.put(row, rank)  # FIFO/LIFO stores ignore the rank
        if self.metrics.enabled:
            self._m_enqueued.value += 1.0
            self._m_priority.observe(self._priorities[rank])
            # the queue's own container: no ``Store.__len__`` frame per put
            depth = len(queue._items)
            if depth > self._m_ready_hwm.value:
                self._m_ready_hwm.value = depth

    def _worker(self, index: int, thread: int, gpu: Optional[int] = None):
        """The worker loop of one core or, with ``gpu`` set, of one
        accelerator; ``index`` is its place in ``_workers``. A device
        worker serves the device queue, pays the
        kernel-launch overhead, stages inputs and outputs over the
        node's PCIe link around the body, is traced on its own row
        (``thread`` beyond the CPU workers, so Gantt charts show device
        occupancy separately) and never opens a steal episode.
        """
        runtime = self.runtime
        graph = self.graph
        cluster = runtime.cluster
        machine = cluster.machine
        node = self.node
        on_device = gpu is not None
        ready = self.gpu_ready if on_device else self.ready
        task_overhead = (
            machine.gpu_task_overhead_s if on_device else machine.task_overhead_s
        )
        device = "gpu" if on_device else "cpu"
        executed = self._m_gpu_executed if on_device else self._m_executed
        checkpoint = self.engine.checkpoint
        me = self._workers[index]
        faults = cluster.faults
        # only a planned crash re-homes a running task (bumps its epoch),
        # so without one no body needs an abort predicate
        crashable = faults is not None and bool(faults.plan.crashes)
        # per-task loop invariants, hoisted once per worker lifetime
        engine = self.engine
        metrics = self.metrics
        observe_duration = self._m_duration.observe
        on_complete = runtime._on_complete
        trace_record = node.trace.record
        traced = node.trace.enabled
        node_id = node.node_id
        flags = graph.flags
        nodes = graph.nodes
        while True:
            # Hot path: work already queued. try_get + checkpoint resumes
            # through the immediate lane without allocating a SimEvent and
            # consumes exactly one seq — the same as a pre-succeeded get()
            # — so virtual timings are bitwise unchanged.
            ok, row = ready.try_get()
            if not ok:
                if not on_device and self.steal_agent is not None:
                    self.steal_agent.notify_idle()
                row = yield ready.get()
            else:
                yield checkpoint
            if not node.alive:
                break  # queued work was re-homed by the crash handler
            if flags[row] & DONE or nodes[row] != node_id:
                # stale queue entry: the task migrated (work stealing) or
                # was re-homed while waiting here; its new owner runs it
                if metrics.enabled:
                    self._m_stale.value += 1.0
                continue
            # pin the task to this node before the next yield: a claimed
            # task is never migrated out from under a ramping-up worker
            flags[row] |= CLAIMED
            # the row is ready, so its inputs are all in: the view can be
            # built now, and names the attempt a planned failure hits
            task = RunningTask(graph, row)
            # per-task runtime bookkeeping (select + dependence checks)
            if task_overhead > 0:
                yield engine.timeout(task_overhead)
            if faults is not None:
                label = task.label
                if faults.plan.task_fails(label, 0):
                    yield from faults.retry_gate(label)
            if not node.alive:
                # crashed while this attempt was ramping up; the task was
                # already re-homed, and starting it here would capture the
                # *bumped* epoch and defeat the kill predicate
                break
            flags[row] |= STARTED
            cls = task.cls
            md = runtime.md
            context = TaskContext(task, md, cluster, node, thread, device)
            t_start = engine.now
            if on_device:  # stage the READ and RW flows in
                in_bytes = 8.0 * sum(
                    flow.size_elems(task.params, md)
                    for flow in cls.flows
                    if flow.mode is not FlowMode.WRITE
                )
                if in_bytes > 0:
                    yield node.pcie.transfer(in_bytes)
            if crashable:
                # a crash re-homes the task (bumps its epoch) and the body
                # is killed at its next resume; the survivor node
                # re-executes it from the row's still-held inputs
                if not (
                    yield from me.abortable(
                        cls.run(context), _rehomed(graph.epochs, row)
                    )
                ):
                    faults.note_abort(engine.now - t_start)
                    break  # epoch bumps only come from this node's own crash
            else:
                yield from cls.run(context)
            if on_device:  # stage the RW and WRITE flows back
                out_bytes = 8.0 * sum(
                    flow.size_elems(task.params, md)
                    for flow in cls.flows
                    if flow.mode is not FlowMode.READ
                )
                if out_bytes > 0:
                    yield node.pcie.transfer(out_bytes)
            if traced:
                meta = {"device": f"gpu{gpu}"} if on_device else None
                stolen_from = graph.stolen_from.get(row)
                if stolen_from is not None:
                    meta = {**(meta or {}), "stolen_from": stolen_from}
                trace_record(
                    node_id,
                    thread,
                    cls.category,
                    task.label,
                    t_start,
                    engine.now,
                    meta=meta,
                )
            if metrics.enabled:
                executed[cls.name].value += 1.0
                observe_duration(engine.now - t_start)
            on_complete(task, context)
            # a parked worker must not pin its last task's view and
            # context, nor the level's metadata (and through it the
            # Global Arrays)
            del task, context, md
            if not node.alive:
                break
