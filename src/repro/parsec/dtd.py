"""Dynamic Task Discovery (DTD) — the alternative the paper contrasts.

Section VI: other task engines "largely rely on some form of 'Dynamic
Task Discovery (DTD)', or in other words building the entire DAG of
execution in memory using skeleton programs. While PaRSEC also uses an
inspector phase to collect information about the meta data of the
program, this is hardly equivalent ... Our inspector phase does not
build a DAG in memory and does not need to discover the way tasks
depend on one another by matching input and output data."

This module implements exactly that contrasted model so the difference
can be measured: a *skeleton program* inserts tasks one by one, each
declaring data accesses (READ / RW / WRITE on :class:`DataHandle`
objects); the runtime infers dependencies by matching accesses against
the last writer and intervening readers of each handle, materializing
every edge of the DAG in memory. Execution then proceeds over the same
simulated cluster with per-node priority schedulers and communication
threads, like the PTG runtime.

The measurable costs of the DTD approach (reported by
:class:`DtdResult` and compared in the ablation benchmark):

- the skeleton's serial insertion time (every task passes through one
  master thread, charged per insert);
- the materialized DAG: one record per task plus one per edge, versus
  the PTG's O(task classes) symbolic representation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import inf
from typing import Any, Callable, Optional

from repro.obs.result import RunResult
from repro.parsec.comm import comm_service
from repro.parsec.taskclass import TaskContext
from repro.sim.cluster import Cluster
from repro.sim.engine import Process, SimEvent
from repro.sim.network import Message
from repro.sim.queues import RankStore
from repro.sim.trace import TaskCategory
from repro.util.errors import ConfigurationError, DataflowError, StallError

__all__ = [
    "AccessMode",
    "DataHandle",
    "DtdKind",
    "DtdTask",
    "DtdContext",
    "DtdRuntime",
    "DtdResult",
]

#: serial cost of inserting one task through the skeleton program
DTD_INSERT_OVERHEAD_S = 4.0e-6


class AccessMode:
    READ = "read"
    RW = "rw"
    WRITE = "write"


class DataHandle:
    """One piece of data tasks communicate through.

    Tracks the version chain the dependence matcher needs: the last
    writer task and the readers of the current version — and how many
    inserted tasks have yet to finish with the handle. ``value`` lives
    until that count reaches zero (a rewrite replaces it sooner); the
    matcher has seen every access by then, so nothing can read it later.
    ``key`` names a handle declared through :meth:`DtdRuntime.data`; an
    intermediate the skeleton passes by reference needs none.
    """

    __slots__ = (
        "key",
        "size_elems",
        "home_node",
        "value",
        "_last_writer",
        "_readers",
        "_accessors",
    )

    def __init__(
        self, key: Optional[str], size_elems: int, home_node: int, value: Any = None
    ):
        self.key = key
        self.size_elems = size_elems
        self.home_node = home_node
        self.value = value
        self._last_writer: Optional["DtdTask"] = None
        #: readers of the current version, allocated on the first read
        self._readers: Optional[list["DtdTask"]] = None
        #: declared accesses whose task has not completed yet
        self._accessors = 0

    @property
    def nbytes(self) -> float:
        return 8.0 * self.size_elems

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataHandle({self.key!r}, n={self.size_elems})"


class DtdKind:
    """What every task of one kind shares — the DTD counterpart of a
    PTG task class: a label, the body, the access mode of each handle
    the task declares, and the trace category."""

    __slots__ = ("label", "body", "modes", "category")

    def __init__(
        self,
        label: str,
        body: Callable[["DtdContext"], Any],
        modes: tuple[str, ...],
        category: TaskCategory = TaskCategory.OTHER,
    ):
        for mode in modes:
            if mode not in (AccessMode.READ, AccessMode.RW, AccessMode.WRITE):
                raise DataflowError(f"unknown access mode {mode!r}")
        self.label = label
        self.body = body
        self.modes = modes
        self.category = category


class DtdTask:
    """One inserted task: a small record of its insertion number, kind,
    parameters, handles (in the order of ``kind.modes``), placement,
    priority and its materialized out-edges. The name is derived, not
    stored."""

    __slots__ = (
        "number",
        "kind",
        "params",
        "handles",
        "node",
        "priority",
        "successors",
        "pending",
    )

    def __init__(self, number, kind, params, handles, node, priority):
        #: its index in the runtime's task list: what a ready queue holds
        self.number = number
        self.kind = kind
        self.params = params
        #: emptied once the task has finished
        self.handles: tuple[DataHandle, ...] = handles
        self.node = node
        self.priority = priority
        #: allocated on the first out-edge, dropped once the task has finished
        self.successors: Optional[list["DtdTask"]] = None
        #: unfinished predecessors; -1 once the task itself has finished
        self.pending = 0

    @property
    def name(self) -> str:
        if not self.params:
            return self.kind.label
        return f"{self.kind.label}({','.join(map(str, self.params))})"

    @property
    def done(self) -> bool:
        return self.pending < 0


class DtdContext(TaskContext):
    """What a DTD task body sees: ``values``, its handles' data in
    access order — a body publishes a handle it writes by assigning its
    slot — and ``md``, the runtime's. ``machine``, ``real`` and
    ``charge`` are :class:`TaskContext`'s — the READ/REDUCE/SORT bodies
    shared with the PTG runtime see one context either way."""

    __slots__ = ("values",)
    task: DtdTask  # type: ignore[assignment]  # narrows TaskContext.task

    def __init__(self, task: DtdTask, md: Any, cluster: Cluster, node, thread: int):
        super().__init__(task, md, cluster, node, thread)  # type: ignore[arg-type]
        self.values = [handle.value for handle in task.handles]


@dataclass
class DtdResult(RunResult):
    """Execution outcome plus the DTD model's bookkeeping costs."""

    execution_time: float
    n_tasks: int
    n_edges: int
    insertion_time: float  # virtual serial time the skeleton spent
    messages_remote: int = 0
    bytes_remote: float = 0.0


class DtdRuntime:
    """Insert-then-execute runtime with data-access dependence matching."""

    def __init__(self, cluster: Cluster, md: Any = None) -> None:
        self.cluster = cluster
        #: what bodies see as ``ctx.md`` (the CCSD skeleton's level
        #: metadata); dropped at shutdown
        self.md = md
        self.engine = cluster.engine
        self.instance_id = next(_dtd_ids)
        self._inbox_name = f"dtd.recv#{self.instance_id}"
        self._tasks: list[DtdTask] = []
        self._handles: dict[str, DataHandle] = {}
        self._edges = 0
        self._executing = False
        # execution state: per node a queue of task numbers, ranked by
        # ``_rank``, each distinct priority's place (0 = the highest)
        self._ready: list[RankStore] = []
        self._rank: dict[float, int] = {}
        #: the worker processes, closed at shutdown
        self._threads: list[Process] = []
        self._completed = 0
        self._done: Optional[SimEvent] = None
        self.messages_remote = 0
        self.bytes_remote = 0.0
        #: bytes of live handle values and their high-water mark; kept
        #: only while the metrics registry is on
        self._live_bytes = 0
        self._live_bytes_hwm = 0

    # ------------------------------------------------------------------
    # skeleton-program API
    # ------------------------------------------------------------------
    def data(
        self, key: str, size_elems: int, home_node: int = 0, value: Any = None
    ) -> DataHandle:
        """Declare (or look up) a data handle."""
        handle = self._handles.get(key)
        if handle is None:
            handle = DataHandle(key, size_elems, home_node)
            self._handles[key] = handle
            if value is not None:
                self._store(handle, value)
        return handle

    def _store(self, handle: DataHandle, value: Any) -> None:
        """Replace a handle's value (``None`` drops it), keeping the
        live-bytes account when the metrics registry is on."""
        if self.cluster.metrics.enabled:
            self._live_bytes += getattr(value, "nbytes", 0) - getattr(
                handle.value, "nbytes", 0
            )
            if self._live_bytes > self._live_bytes_hwm:
                self._live_bytes_hwm = self._live_bytes
        handle.value = value

    def insert(
        self,
        kind: DtdKind,
        params: tuple,
        handles: tuple[DataHandle, ...],
        node: int,
        priority: float = 0.0,
    ) -> DtdTask:
        """Insert one task; dependencies are inferred from its handles.

        READ depends on the handle's last writer; WRITE/RW additionally
        depends on every reader of the current version (the
        anti-dependence that keeps reads coherent).
        """
        if self._executing:
            raise DataflowError("cannot insert tasks after execute()")
        task = DtdTask(len(self._tasks), kind, params, handles, node, priority)
        # a NaN would break the ordering the priority table is sorted by
        if not -inf < priority < inf:
            raise DataflowError(f"{task.name} has non-finite priority {priority}")
        for handle, mode in zip(handles, kind.modes, strict=True):
            handle._accessors += 1
            if handle._last_writer is not None:
                self._edge(handle._last_writer, task)
            readers = handle._readers
            if mode == AccessMode.READ:
                if readers is None:
                    handle._readers = [task]
                else:
                    readers.append(task)
            else:  # RW / WRITE
                if readers is not None:
                    for reader in readers:
                        self._edge(reader, task)
                    handle._readers = None
                handle._last_writer = task
        self._tasks.append(task)
        return task

    def _edge(self, predecessor: DtdTask, task: DtdTask) -> None:
        if predecessor is task:
            return
        if predecessor.successors is None:
            predecessor.successors = [task]
        else:
            predecessor.successors.append(task)
        task.pending += 1
        self._edges += 1

    @property
    def n_tasks(self) -> int:
        return len(self._tasks)

    @property
    def n_edges(self) -> int:
        return self._edges

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self) -> DtdResult:
        """Run the materialized DAG to completion."""
        if self._executing:
            raise DataflowError("execute() called twice")
        faults = self.cluster.faults
        if faults is not None and (
            faults.plan.task_fail_prob > 0 or faults.plan.crashes
        ):
            raise ConfigurationError(
                "the DTD runtime has no retry gate and no crash recovery: "
                "fault plans with task_fail_prob or crashes need the PaRSEC "
                "or legacy runtime (message fates and stragglers are honoured)"
            )
        self._executing = True
        start_time = self.engine.now
        # the skeleton program inserted every task serially on a master
        # thread — charge that as up-front virtual time
        insertion_time = DTD_INSERT_OVERHEAD_S * len(self._tasks)
        self._done = self.engine.event()
        if not self._tasks:
            self._done.succeed()
        service = comm_service(self.cluster.machine)
        table = sorted({task.priority for task in self._tasks}, reverse=True)
        self._rank = {priority: index for index, priority in enumerate(table)}
        for node in self.cluster.nodes:
            store = RankStore(
                self.engine, len(self._tasks), name=f"dtd.ready{node.node_id}"
            )
            self._ready.append(store)
            for thread in range(self.cluster.cores_per_node):
                self._threads.append(
                    self.engine.process(
                        self._worker(node, thread),
                        name=f"dtd.worker{node.node_id}.{thread}#{self.instance_id}",
                    )
                )
            node.serve(self._inbox_name, service, self._receive)
        self.engine.process(self._seed(insertion_time), name="dtd.master")
        end_time = self.cluster.run()
        if self._done is not None and not self._done.triggered:
            stuck = [t.name for t in self._tasks if not t.done]
            raise StallError(
                f"DTD execution stalled with {len(stuck)} unfinished tasks "
                f"(first few: {stuck[:5]})",
                report=faults.report if faults is not None else None,
            )
        if self._live_bytes_hwm:
            # a max, not a sum: a gauge, never a DtdResult field (the
            # level merge adds every numeric field)
            self.cluster.metrics.gauge_max(
                "parsec.live_payload_bytes.hwm", float(self._live_bytes_hwm)
            )
        self._shutdown()
        return DtdResult(
            execution_time=end_time - start_time,
            n_tasks=len(self._tasks),
            n_edges=self._edges,
            insertion_time=insertion_time,
            messages_remote=self.messages_remote,
            bytes_remote=self.bytes_remote,
        )

    def _shutdown(self) -> None:
        """End of the level, after the run's last event: abandon and
        close the parked workers (a parked process is a cycle whose frame
        reaches this runtime), drop the receive mailboxes, the level's
        metadata and the declared handles' version chains. A finished
        task has let go of its handles, which cuts the DAG's own cycle
        (handle -> last writer -> handle); a body closing over a declared
        handle closes one more, through the task's kind. The task and
        handle tables then die with the runtime, by reference count.
        Schedules nothing: every worker is parked at the top of its loop."""
        self.md = None
        for store in self._ready:
            store.abandon_getters()
        for node in self.cluster.nodes:
            node.drop_inbox(self._inbox_name)
        for thread in self._threads:
            thread.close()
        for handle in self._handles.values():
            handle._last_writer = None
            handle._readers = None

    def _seed(self, insertion_time: float):
        if insertion_time > 0:
            yield self.engine.timeout(insertion_time)
        for task in self._tasks:
            if task.pending == 0:
                self._ready[task.node].put(task.number, self._rank[task.priority])

    def _worker(self, node, thread: int):
        machine = self.cluster.machine
        while True:
            task = self._tasks[(yield self._ready[node.node_id].get())]
            if machine.task_overhead_s > 0:
                yield self.engine.timeout(machine.task_overhead_s)
            context = DtdContext(task, self.md, self.cluster, node, thread)
            t_start = self.engine.now
            yield from task.kind.body(context)
            if node.trace.enabled:
                node.trace.record(
                    node.node_id,
                    thread,
                    task.kind.category,
                    task.name,
                    t_start,
                    self.engine.now,
                )
            # a call, not a loop here: a parked worker must not pin its
            # last task's data
            self._finish(task, context.values)
            del context

    def _finish(self, task: DtdTask, values: list) -> None:
        """Publish written values back to the handles, let go of every
        handle this was the last inserted task to touch, release the
        successors."""
        for handle, mode, value in zip(task.handles, task.kind.modes, values):
            if mode != AccessMode.READ:
                self._store(handle, value)
            handle._accessors -= 1
            if handle._accessors == 0:
                self._store(handle, None)
        successors = task.successors or ()
        task.handles = ()
        task.successors = None
        task.pending = -1
        for successor in successors:
            successor.pending -= 1
            if successor.pending == 0:
                self._activate(task, successor)
        self._completed += 1
        if self._completed == len(self._tasks):
            self._done.succeed()

    def _activate(self, producer: DtdTask, successor: DtdTask) -> None:
        if successor.node == producer.node:
            self._ready[successor.node].put(
                successor.number, self._rank[successor.priority]
            )
            return
        # ship the successor's read data that lives on the producer's
        # side; model as one message sized by the successor's inputs
        size_bytes = sum(
            handle.nbytes
            for handle, mode in zip(successor.handles, successor.kind.modes)
            if mode != AccessMode.WRITE
        )
        self.messages_remote += 1
        self.bytes_remote += size_bytes
        self.cluster.network.send(
            producer.node,
            successor.node,
            size_bytes,
            successor,
            inbox=self._inbox_name,
            tag=f"dtd:{successor.name}",
        )

    def _receive(self, message: Message) -> None:
        """The receive server's handler: a remote successor arrived."""
        successor: DtdTask = message.take()
        rank = self._rank[successor.priority]
        self._ready[successor.node].put(successor.number, rank)


_dtd_ids = itertools.count()
