"""The PTG container, its template and one run's task state.

A :class:`PTG` is a set of task classes. :meth:`PTG.instantiate`
evaluates every class's symbolic domain against the metadata (the
product of the inspection phase) into a :class:`Template` — one row per
task instance, class by class and each class in params order, of its
key, placement, priority, pending input count and resolved
successors — and hands back a
:class:`TaskGraph`: the run's mutable state as columns indexed by row
number. A task is a template row until it runs; only a worker running
its body holds an object for it (:class:`RunningTask`).

Resolving the successors evaluates every output dep's guard and param
map once per template: each task's row lists the consumers its active
deps feed, keyed by the consumer's own table key, so a completion walks
data instead of re-evaluating the symbolic dataflow. Building the
template also *validates the dataflow*, as a count over those edges:
every active input dep must be fed by exactly the right number of active
output deps on the producer side. A mismatch — a task that would wait
forever, or a delivery nobody expects — is a programming error in the
PTG and raises :class:`~repro.util.errors.DataflowError` up front rather
than showing up as a simulation that silently never terminates.

A template is pure data: it depends on the PTG's shape and on what the
metadata derives from the workload's structure, the node count and the
variant, never on a run. A PTG given a ``key`` and a ``cache`` (an
:class:`~repro.core.inspector.InspectionCache`) builds and validates it
once per ``(key, n_nodes)``; every instantiation, first or not, takes
the same path from template to columns.

Note on memory data: in real PaRSEC, flows can also read/write
distributed memory directly (``READ A <- A input_A(...)`` in Figure 1).
Here such memory endpoints live in the task *bodies* (READ tasks touch
the Global Array via local access, WRITE tasks accumulate into it),
which matches the paper's description of passing GA locations to PaRSEC
as opaque IDs resolved at execution time.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, compress
from operator import itemgetter, not_
from types import MappingProxyType
from typing import Any, Iterator, Mapping, Optional

from repro.parsec.taskclass import EDGES, TaskClass
from repro.util.errors import DataflowError

__all__ = ["PTG", "Template", "TaskGraph", "RunningTask"]

#: The bits of a row's state byte (:attr:`TaskGraph.flags`).
#: DONE — the task completed (never reset); STARTED — a worker began its
#: body; CLAIMED — a worker popped it, which pins it to its node (the
#: steal layer never migrates it); COMMITTED — the body published its
#: irreversible effects (:meth:`RunningTask.commit`), so a crash neither
#: aborts nor re-homes it. A crash re-homing clears STARTED and CLAIMED.
DONE = 1
STARTED = 2
CLAIMED = 4
COMMITTED = 8
_RUNNING = DONE | STARTED

_NO_INPUTS: Mapping[str, Any] = MappingProxyType({})


class Template:
    """A PTG's validated task table, shared by every run of it.

    ``rows`` are the task instances in creation order, each ``(key,
    node, priority, pending, *edges)`` (``taskclass.EDGES``); ``classes``
    the classes' names with their row counts, in the same order. A task
    is its row number: an edge names its consumer by row, so a
    completion indexes the run's columns without looking a key up. A
    class's rows are numbered in params order (:meth:`PTG.template`), so
    :attr:`sorted_rows` — the order crash re-homing and the steal chain
    index sweep in — is the classes' row ranges by name: nothing is
    sorted or kept for it.
    """

    __slots__ = ("classes", "rows")

    def __init__(
        self, classes: tuple[tuple[str, int], ...], rows: tuple[tuple, ...]
    ) -> None:
        self.classes = classes
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def sorted_rows(self) -> Iterator[int]:
        """Every row, in sorted-key order."""
        runs = []
        start = 0
        for name, count in self.classes:
            runs.append((name, range(start, start + count)))
            start += count
        runs.sort(key=itemgetter(0))
        return chain.from_iterable(run for _, run in runs)


class PTG:
    """An ordered registry of task classes.

    ``key`` identifies the template this PTG instantiates to, up to the
    node count, and ``cache`` is where it is kept; a PTG without both is
    validated at every instantiation.
    """

    def __init__(
        self, name: str = "ptg", key: Optional[tuple] = None, cache=None
    ) -> None:
        self.name = name
        self.classes: dict[str, TaskClass] = {}
        self.key = key
        self.cache = cache

    def add(self, task_class: TaskClass) -> TaskClass:
        """Register a class; names must be unique."""
        if task_class.name in self.classes:
            raise DataflowError(f"task class {task_class.name!r} defined twice")
        self.classes[task_class.name] = task_class
        return task_class

    def task_class(self, name: str) -> TaskClass:
        try:
            return self.classes[name]
        except KeyError:
            raise DataflowError(f"PTG {self.name!r} has no class {name!r}") from None

    def instantiate(self, md: Any, n_nodes: int, validate: bool = True) -> "TaskGraph":
        """A fresh run's task state over the template for metadata ``md``."""
        if validate and self.key is not None and self.cache is not None:
            template = self.cache.template(
                (self.key, n_nodes), lambda: self.template(md, n_nodes)
            )
        else:
            template = self.template(md, n_nodes, validate)
        return TaskGraph(self, md, template)

    def template(self, md: Any, n_nodes: int, validate: bool = True) -> Template:
        """Evaluate every class's domain, placement, priority, input count
        and successors against ``md``; checked by :meth:`_validate`
        unless told otherwise."""
        #: key -> row number; its values are the one int object per row
        #: every edge into that row shares
        row_of: dict[tuple, int] = {}
        # one float object per distinct priority: a level has a few
        # hundred values over tens of thousands of rows
        priorities: dict[float, float] = {}
        heads = []
        for cls in self.classes.values():
            rows = []
            # rows in params order, the order PaRSEC's startup sweep
            # walks a class's parameter space in (and the template's
            # sorted-key order without a sort per use)
            for params in sorted(map(tuple, cls.domain(md))):
                node = cls.placement(params, md)
                if not 0 <= node < n_nodes:
                    raise DataflowError(
                        f"{cls.name}{params} placed on invalid node {node}"
                    )
                key = (cls.name, params)
                if key in row_of:
                    raise DataflowError(f"duplicate task instance {cls.name}{params}")
                row_of[key] = len(row_of)
                priority = float(cls.priority(params, md)) if cls.priority else 0.0
                priority = priorities.setdefault(priority, priority)
                rows.append((key, node, priority, cls.input_count(params, md)))
            heads.append((cls, rows))
        # a successor resolves to its consumer's row, whatever class it
        # belongs to: a second pass, once every key is known
        rows = []
        for cls, head in heads:
            rows += _with_successors(cls, head, row_of, md, validate)
        template = Template(
            tuple((cls.name, len(head)) for cls, head in heads), tuple(rows)
        )
        if validate:
            self._validate(template)
        return template

    def _validate(self, template: Template) -> None:
        """Check every expected delivery has exactly one producer: count
        the resolved edges into each (consumer row, flow)."""
        incoming: dict[tuple, int] = defaultdict(int)
        classes = self.classes
        rows = template.rows
        for row in rows:
            out_deps = classes[row[0][0]].out_deps
            for j in range(EDGES, len(row), 2):
                incoming[row[j + 1], out_deps[row[j]][1].flow] += 1
        for index, row in enumerate(rows):
            key, expected = row[0], row[3]
            flows = classes[key[0]].flows
            actual = sum(incoming.get((index, flow.name), 0) for flow in flows)
            if actual != expected:
                raise DataflowError(
                    f"{key[0]}{key[1]} expects {expected} deliveries but the "
                    f"dataflow produces {actual}"
                )


def _with_successors(
    cls: TaskClass, rows: list, row_of: dict, md: Any, validate: bool
) -> list:
    """``cls``'s rows, each extended by its resolved output edges in
    (flow, dep) order: pairs of (index into ``cls.out_deps``, consumer
    row) appended to the row itself, so an edge costs two of its slots
    and nothing else (the memo holds one row per task of every
    template). Unvalidated, a consumer missing from the table keeps the
    key its dep names, and the runtime reports it when the producer
    completes."""
    deps = [
        (index, flow, dep.guard, dep.param_map, dep.target_class)
        for index, (flow, dep) in enumerate(cls.out_deps)
    ]
    completed = []
    for head in rows:
        params = head[0][1]
        row = list(head)
        for index, flow, guard, param_map, target_class in deps:
            if guard is not None and not guard(params, md):
                continue
            consumer_key = (target_class, tuple(param_map(params, md)))
            found = row_of.get(consumer_key)
            if found is None:
                if validate:
                    raise DataflowError(
                        f"{cls.name}{params}.{flow.name} targets missing "
                        f"task {target_class}{consumer_key[1]}"
                    )
                found = consumer_key
            row += (index, found)
        completed.append(tuple(row))
    return completed


class TaskGraph:
    """One run's task state: columns over the template's rows.

    ``nodes`` and ``pending`` start as the template's placement and input
    count and are what a run moves (steals, crash re-homing) and counts
    down; ``flags`` holds a state byte per row (:data:`DONE`,
    :data:`STARTED`, :data:`CLAIMED`, :data:`COMMITTED`). What few rows
    ever need is kept sparse: ``epochs`` (bumped when a crash re-homes a
    row; a worker whose captured epoch no longer matches aborts its
    stale attempt), ``stolen_from`` (the node a steal moved the row off;
    trace-only) and the delivered ``payloads`` with their producer
    ``tags``, made at a row's first delivery and dropped when it
    completes.
    """

    def __init__(self, ptg: PTG, md: Any, template: Template) -> None:
        self.ptg = ptg
        self.md = md
        self.template = template
        self.rows = rows = template.rows
        self.nodes: list[int] = list(map(itemgetter(1), rows))
        self.pending: list[int] = list(map(itemgetter(3), rows))
        self.flags = bytearray(len(rows))
        self.epochs: dict[int, int] = {}
        self.stolen_from: dict[int, int] = {}
        self.payloads: dict[int, dict[str, Any]] = {}
        self.tags: dict[int, dict[str, Any]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def cls(self, row: int) -> TaskClass:
        return self.ptg.classes[self.rows[row][0][0]]

    def key(self, row: int) -> tuple:
        return self.rows[row][0]

    def label(self, row: int) -> str:
        name, params = self.rows[row][0]
        return f"{name}{params}"

    def row(self, class_name: str, params: tuple) -> int:
        """The row of a key: a scan, for tests and diagnostics (no run
        path looks a key up)."""
        key = (class_name, tuple(params))
        for index, row in enumerate(self.rows):
            if row[0] == key:
                return index
        raise DataflowError(f"no instance {class_name}{key[1]} in task graph")

    def initially_ready(self) -> list[int]:
        """Rows with no pending inputs (in creation order)."""
        pending = self.pending
        return list(compress(range(len(pending)), map(not_, pending)))

    def tasks_per_class(self) -> dict[str, int]:
        return {name: count for name, count in self.template.classes if count}

    def receive(self, row: int, flow: str, data: Any, tag: Any = None) -> bool:
        """Satisfy one input delivery; returns True if ``row`` is now ready.

        ``tag`` identifies the producer (the sending task's key); it is
        stored alongside the data so order-sensitive consumers can
        process multi-delivery flows in a canonical producer order
        rather than in arrival order.
        """
        if self.flags[row] & _RUNNING:
            raise DataflowError(f"delivery to already-running task {self.label(row)}")
        pending = self.pending[row]
        if pending <= 0:
            raise DataflowError(f"unexpected delivery to {self.label(row)} on {flow!r}")
        inputs = self.payloads.get(row)
        if inputs is None:
            self.payloads[row] = {flow: data}
            self.tags[row] = {flow: tag}
        elif flow in inputs:
            # multiple deliveries to one flow accumulate into a list (the
            # single-WRITE variants receive several sorted matrices)
            tags = self.tags[row]
            existing = inputs[flow]
            if not isinstance(existing, list):
                existing = inputs[flow] = [existing]
                tags[flow] = [tags[flow]]
            existing.append(data)
            tags[flow].append(tag)
        else:
            inputs[flow] = data
            self.tags[row][flow] = tag
        self.pending[row] = pending - 1
        return pending == 1

    def complete(self, row: int) -> Optional[dict[str, Any]]:
        """Mark ``row`` done and hand back its delivered payloads, which
        the graph forgets: the task is done with them (a payload lives
        from its producer's completion to its last consumer's). Nothing
        reads a finished task's inputs — recovery re-homes and the steal
        layer forwards *unfinished* rows only — and a row completes
        exactly once: a second completion is a :class:`DataflowError`."""
        state = self.flags[row]
        if state & DONE:
            raise DataflowError(f"task {self.label(row)} completed twice")
        self.flags[row] = state | DONE
        inputs = self.payloads.pop(row, None)
        if inputs is not None:
            del self.tags[row]
        return inputs

    def check_drained(self) -> None:
        """At a level's end no row may still hold payloads: each one
        belongs to a task that never ran, so a delivery was lost."""
        if self.payloads:
            held = sorted(self.label(row) for row in self.payloads)
            raise DataflowError(
                f"level shut down with {len(held)} task(s) holding payloads: "
                f"{', '.join(held[:5])}"
            )


class RunningTask:
    """The view of the task a worker is running, alive only while the body
    runs: what :class:`~repro.parsec.taskclass.TaskContext` and a body
    read of it (class, key, parameters, inputs, label, producer tags)
    and the one write it makes, :meth:`commit`."""

    __slots__ = ("graph", "row", "key", "cls", "params", "inputs")

    def __init__(self, graph: TaskGraph, row: int, key: tuple, cls: TaskClass) -> None:
        self.graph = graph
        self.row = row
        self.key = key
        self.cls = cls
        self.params: tuple = key[1]
        self.inputs: Mapping[str, Any] = graph.payloads.get(row, _NO_INPUTS)

    @property
    def label(self) -> str:
        return self.graph.label(self.row)

    def input_tag_list(self, flow: str) -> list:
        """Producer tags of ``flow``, parallel to its delivery list."""
        tags = self.graph.tags.get(self.row, _NO_INPUTS).get(flow)
        if not isinstance(tags, list):
            tags = [tags]
        return tags

    def commit(self) -> None:
        self.graph.flags[self.row] |= COMMITTED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunningTask({self.label} @node{self.graph.nodes[self.row]})"
