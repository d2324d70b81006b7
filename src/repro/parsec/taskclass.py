"""Task classes, flows, and dependencies — the PTG building blocks.

A :class:`TaskClass` is the analogue of one task definition in a PaRSEC
``.jdf`` file (Figure 1 of the paper): a name, a parameter tuple, a
symbolic execution domain, a placement rule, a priority expression, and
a set of named :class:`Flow` s whose guarded :class:`Dep` s point at
other task classes. Everything symbolic is a plain Python callable over
``(params, metadata)``, which is exactly the role the PTG's inline C
expressions play.

The task *body* is a generator ``run(ctx)`` driven inside the simulated
worker thread. It charges its cost with ``yield ctx.charge(cost)`` and,
in REAL data mode, moves actual NumPy data from ``ctx.inputs`` to
``ctx.outputs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Optional

from repro.sim.trace import TaskCategory
from repro.util.errors import DataflowError

__all__ = ["FlowMode", "Dep", "Flow", "TaskClass", "TaskInstance", "TaskContext"]

#: Where a template row's resolved successors start: a row is ``(key,
#: node, priority, pending, *edges)``, and each edge is two items — an
#: index into the class's ``out_deps`` and the consumer's table key.
EDGES = 4

Params = tuple
Guard = Callable[[Params, Any], bool]
ParamMap = Callable[[Params, Any], Params]
Transform = Callable[[Any, Params, Any], Any]


class FlowMode(str, Enum):
    """Access mode of a flow, as in the PTG syntax (READ / RW / WRITE)."""

    READ = "read"
    RW = "rw"
    WRITE = "write"


@dataclass(frozen=True)
class Dep:
    """One guarded dataflow arrow between task classes.

    As an *input* dep on flow F of class X: "X(p).F <- target(map(p)).flow".
    As an *output* dep: "X(p).F -> target(map(p)).flow".

    ``transform`` (outputs only) reshapes/slices the produced data for
    this particular consumer — how a SORT task sends each WRITE_C
    instance "only the data that is relevant to the node on which the
    task instance executes" (Figure 8).
    ``size_elems`` overrides the transferred element count for message
    cost modelling when the transform changes the payload size.
    """

    target_class: str
    param_map: ParamMap
    flow: str
    guard: Optional[Guard] = None
    transform: Optional[Transform] = None
    size_elems: Optional[Callable[[Params, Any], int]] = None

    def active(self, params: Params, md: Any) -> bool:
        return True if self.guard is None else bool(self.guard(params, md))


@dataclass
class Flow:
    """A named piece of data flowing through a task class.

    ``size_elems(params, md)`` gives the element count of the flow's
    data for one task instance (used to cost remote transfers).
    """

    name: str
    mode: FlowMode
    size_elems: Callable[[Params, Any], int]
    inputs: list[Dep] = field(default_factory=list)
    outputs: list[Dep] = field(default_factory=list)


class TaskClass:
    """One parameterized family of tasks."""

    def __init__(
        self,
        name: str,
        params: tuple[str, ...],
        domain: Callable[[Any], Any],
        placement: Callable[[Params, Any], int],
        run: Callable[["TaskContext"], Any],
        flows: list[Flow],
        category: TaskCategory = TaskCategory.OTHER,
        priority: Optional[Callable[[Params, Any], float]] = None,
        accelerated: bool = False,
    ) -> None:
        self.name = name
        self.params = params
        self.domain = domain
        self.placement = placement
        self.run = run
        self.flows = flows
        self.category = category
        self.priority = priority
        #: True if instances may run on an accelerator when the node
        #: has one (the body must honour ``ctx.device``)
        self.accelerated = accelerated
        #: every output dep with its flow, in (flow, dep) order: a task's
        #: resolved successors (its row's items from :data:`EDGES` on)
        #: index into it
        self.out_deps: tuple[tuple[Flow, Dep], ...] = tuple(
            (flow, dep) for flow in flows for dep in flow.outputs
        )
        self._flow_by_name = {flow.name: flow for flow in flows}
        if len(self._flow_by_name) != len(flows):
            raise DataflowError(f"duplicate flow names in task class {name}")

    def flow(self, name: str) -> Flow:
        try:
            return self._flow_by_name[name]
        except KeyError:
            raise DataflowError(f"{self.name} has no flow {name!r}") from None

    def input_count(self, params: Params, md: Any) -> int:
        """Number of dataflow deliveries this instance must wait for."""
        count = 0
        for flow in self.flows:
            for dep in flow.inputs:
                guard = dep.guard
                if guard is None or guard(params, md):
                    count += 1
        return count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskClass({self.name}{self.params})"


class TaskInstance:
    """One concrete task: a class plus a parameter binding.

    ``row`` is the template row the task was made from, shared and never
    written: its key (``(class name, params)``, the very tuple the task
    table is keyed by), node, priority and pending count seed the fields a
    run mutates, and its items from :data:`EDGES` on are the task's
    resolved successors, one edge per active output dep in (flow, dep)
    order.
    """

    __slots__ = (
        "cls",
        "row",
        "key",
        "params",
        "node",
        "priority",
        "pending",
        "inputs",
        "input_tags",
        "started",
        "done",
        "epoch",
        "committed",
        "claimed",
        "stolen_from",
        "_label",
    )

    def __init__(self, cls: TaskClass, row: tuple) -> None:
        self.cls = cls
        self.row = row
        self.key: tuple[str, Params] = row[0]
        self.params = self.key[1]
        self.node: int = row[1]
        self.priority: float = row[2]
        self.pending: int = row[3]
        self.inputs: dict[str, Any] = {}
        self.input_tags: dict[str, Any] = {}
        self.started = False
        self.done = False
        #: bumped when a crash re-homes the task; a worker whose captured
        #: epoch no longer matches aborts its (now stale) execution
        self.epoch = 0
        #: set by TaskContext.commit() in the same synchronous step as
        #: the body's irreversible side effects; committed tasks are
        #: never aborted or re-homed
        self.committed = False
        #: set synchronously by the worker that pops the task from a
        #: ready queue; a claimed task is pinned to its node (the work
        #: stealing layer never migrates it). Cleared on crash re-homing.
        self.claimed = False
        #: node the task was stolen from, when the stealing layer
        #: migrated its chain (None = never migrated); trace-only.
        self.stolen_from: Optional[int] = None
        self._label: Optional[str] = None

    @property
    def label(self) -> str:
        # built lazily and cached: the label is re-read on every trace
        # record, fault decision, and retry key for the same instance
        label = self._label
        if label is None:
            label = self._label = f"{self.cls.name}{self.params}"
        return label

    def receive(self, flow: str, data: Any, tag: Any = None) -> bool:
        """Satisfy one input delivery; returns True if now ready.

        ``tag`` identifies the producer (the sending task's key); it is
        stored alongside the data so order-sensitive consumers can
        process multi-delivery flows in a canonical producer order
        rather than in arrival order.
        """
        if self.done or self.started:
            raise DataflowError(f"delivery to already-running task {self.label}")
        if self.pending <= 0:
            raise DataflowError(f"unexpected delivery to {self.label} on {flow!r}")
        # multiple deliveries to one flow accumulate into a list (the
        # single-WRITE variants receive several sorted matrices)
        if flow in self.inputs:
            existing = self.inputs[flow]
            if not isinstance(existing, list):
                existing = [existing]
                self.input_tags[flow] = [self.input_tags.get(flow)]
            existing.append(data)
            self.inputs[flow] = existing
            self.input_tags[flow].append(tag)
        else:
            self.inputs[flow] = data
            self.input_tags[flow] = tag
        self.pending -= 1
        return self.pending == 0

    def input_tag_list(self, flow: str) -> list:
        """Producer tags of ``flow``, parallel to its delivery list."""
        tags = self.input_tags.get(flow)
        if not isinstance(tags, list):
            tags = [tags]
        return tags

    def release(self) -> None:
        """Drop the delivered payloads: the task is done with them.

        A payload lives from its producer's completion to its last
        consumer's; this is the consumer's end of that rule. Nothing
        reads a finished task's inputs — recovery re-homes and the steal
        layer forwards *unfinished* tasks only, and :meth:`receive`
        already rejects a delivery to a done task.
        """
        self.inputs = self.input_tags = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskInstance({self.label} @node{self.node})"


class TaskContext:
    """What a task body sees while it runs.

    ``charge(cost)`` is the node's :meth:`~repro.sim.node.Node.charge`:
    it burns one ``OpCost`` on this node/thread — CPU time exclusive
    (scaled by any straggler window), bytes through the node's shared
    memory bandwidth — as one waitable, so a body ``yield``-s it. The
    enclosing task span is traced by the worker, so charges stay
    untraced here.
    """

    __slots__ = (
        "task",
        "md",
        "cluster",
        "node",
        "thread",
        "device",
        "outputs",
        "params",
        "machine",
        "real",
        "charge",
    )

    def __init__(
        self,
        task: TaskInstance,
        md: Any,
        cluster,
        node,
        thread: int,
        device: str = "cpu",
    ) -> None:
        self.task = task
        self.md = md
        self.cluster = cluster
        self.node = node
        self.thread = thread
        #: 'cpu' or 'gpu' — which worker kind is executing the body
        self.device = device
        self.outputs: dict[str, Any] = {}
        self.params: Params = task.params
        self.machine = node.machine
        #: True when actual NumPy data flows through the system
        self.real: bool = cluster.real
        self.charge = node.charge

    @property
    def inputs(self) -> dict[str, Any]:
        return self.task.inputs

    def commit(self) -> None:
        """Mark the task's side effects as irrevocably published.

        Bodies with external effects (the WRITE tasks accumulating into
        a Global Array) call this in the *same synchronous step* as the
        effects themselves. A crash before the commit aborts a clean,
        effect-free body; after it, the task is allowed to run to
        completion even on a dead node (its writes are already in
        flight) and is never re-executed — exactly-once semantics.
        """
        self.task.committed = True
