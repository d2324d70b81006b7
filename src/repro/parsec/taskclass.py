"""Task classes, flows, and dependencies — the PTG building blocks.

A :class:`TaskClass` is the analogue of one task definition in a PaRSEC
``.jdf`` file (Figure 1 of the paper): a name, a parameter tuple, a
symbolic execution domain, a placement rule, a priority expression, and
a set of named :class:`Flow` s whose guarded output :class:`Dep` s point
at the consumers' flows. Everything symbolic is a plain Python callable
over ``(params, metadata)``, which is exactly the role the PTG's inline
C expressions play.

The task *body* is a generator ``run(ctx)`` driven inside the simulated
worker thread. It charges its cost with ``yield ctx.charge(cost)`` and,
in REAL data mode, moves actual NumPy data from ``ctx.inputs`` to
``ctx.outputs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional

from repro.sim.trace import TaskCategory
from repro.util.errors import DataflowError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parsec.ptg import RunningTask

__all__ = ["FlowMode", "Dep", "Flow", "TaskClass", "TaskContext"]

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
    """One guarded dataflow arrow, "X(p).F -> target(map(p)).flow", on
    flow F of class X: the producer's side is the only one spelled. The
    ``<-`` lines of a JDF are the same arrows read from the consumer, so
    a task's input count is the number of active arrows into it (its
    in-degree in the template).

    ``transform`` reshapes/slices the produced data for this particular
    consumer — how a SORT task sends each WRITE_C instance "only the
    data that is relevant to the node on which the task instance
    executes" (Figure 8).
    ``size_elems`` overrides the transferred element count for message
    cost modelling when the transform changes the payload size.
    """

    target_class: str
    param_map: ParamMap
    flow: str
    guard: Optional[Guard] = None
    transform: Optional[Transform] = None
    size_elems: Optional[Callable[[Params, Any], int]] = None


@dataclass
class Flow:
    """A named piece of data flowing through a task class.

    ``size_elems(params, md)`` gives the element count of the flow's
    data for one task instance (used to cost remote transfers); ``mode``
    is what an accelerator stages: a READ or RW flow in, an RW or WRITE
    flow back out.
    """

    name: str
    mode: FlowMode
    size_elems: Callable[[Params, Any], int]
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
        #: resolved successors (``Template.edge_deps``) index into it
        self.out_deps: tuple[tuple[Flow, Dep], ...] = tuple(
            (flow, dep) for flow in flows for dep in flow.outputs
        )
        #: what an arrow into the class may land on
        self.flow_names = frozenset(flow.name for flow in flows)
        if len(self.flow_names) != len(flows):
            raise DataflowError(f"duplicate flow names in task class {name}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskClass({self.name}{self.params})"


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
        task: "RunningTask",
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
    def inputs(self) -> Mapping[str, Any]:
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
        self.task.commit()
