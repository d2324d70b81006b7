"""The PTG container, its template and one run's task state.

A :class:`PTG` is a set of task classes. :meth:`PTG.instantiate`
evaluates every class's symbolic domain against the metadata (the
product of the inspection phase) into a :class:`Template` — flat typed
columns over the task instances, class by class and each class in
params order: their params, placement, priority, resolved successors
and pending input count (the edges into each) — and hands back a
:class:`TaskGraph`: the run's mutable state as columns indexed by row
number. A task is a template row until it runs; only a worker that
claimed it holds an object for it (:class:`RunningTask`), and only then
are its key and params a tuple.

Resolving the successors evaluates every output dep's guard and param
map once per template: each row's edges name the consumers its active
deps feed by row number, so a completion walks data instead of
re-evaluating the symbolic dataflow. A row's pending input count is its
in-degree, counted in the same pass: a PTG spells each arrow once, on
its producer (the ``<-`` lines of a JDF are the same arrows read from
the consumer's side). Building the template also *validates the
dataflow*: an arrow onto a task missing from the table or onto a flow
its consumer's class lacks, a duplicate instance, a bad placement or a
non-finite priority is a programming error in the PTG and raises
:class:`~repro.util.errors.DataflowError` up front rather than showing
up as a delivery nobody expects in the middle of a run.

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

from array import array
from functools import partial
from itertools import chain, compress
from math import inf
from operator import not_
from struct import Struct, unpack_from
from types import MappingProxyType
from typing import Any, Iterable, Iterator, Mapping, Optional

from repro.parsec.taskclass import TaskClass
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


def _column(values) -> array:
    """``values`` (ints) as the narrowest signed typed array that holds
    them."""
    low, high = (min(values), max(values)) if values else (0, 0)
    for code in "bhi":
        bound = 1 << (8 * array(code).itemsize - 1)
        if -bound <= low and high < bound:
            return array(code, values)
    return array("q", values)


class Template:
    """A PTG's validated task table, shared by every run of it: flat
    typed columns over its rows, no object per task.

    A task is its row number. The rows are grouped by class, in the
    PTG's class order: ``classes`` holds each class's name and row count,
    ``starts`` its first row, ``class_of`` each row's class index. A
    class's rows are numbered in params order (:meth:`PTG.template`), and
    ``params[index]`` holds them flat, ``arity[index]`` ints per row
    (``widths[index]`` bytes, read back as a tuple by the ``struct``
    format ``formats[index]``); so
    :attr:`sorted_rows` — the order crash re-homing and the steal chain
    index sweep in — is the classes' row ranges by name: nothing is
    sorted or kept for it. Per row: ``nodes`` (placement), ``pending``
    (input count: the edges into it) and ``ranks``, an index into
    ``priorities`` (the distinct priorities, highest first: a level has a
    few hundred over tens of thousands of rows). Row ``r``'s successors
    are the edges ``edge_starts[r]`` to ``edge_starts[r + 1]``: each an
    index into its class's ``out_deps`` (``edge_deps``) and the
    consumer's row (``consumers``). An unvalidated template names a consumer missing
    from the table by ``len(self)``, past every column, and keeps its
    key in ``missing`` (edge -> key) for the runtime to report.
    """

    __slots__ = (
        "classes",
        "starts",
        "by_name",
        "arity",
        "params",
        "formats",
        "widths",
        "class_of",
        "nodes",
        "pending",
        "ranks",
        "priorities",
        "edge_starts",
        "edge_deps",
        "consumers",
        "missing",
    )

    def __init__(
        self,
        classes: tuple[tuple[str, int], ...],
        arity: tuple[int, ...],
        params: tuple[array, ...],
        nodes: list[int],
        pending: list[int],
        priorities: list[float],
        edge_starts: list[int],
        edge_deps: list[int],
        consumers: list[int],
        missing: dict[int, tuple],
    ) -> None:
        self.classes = classes
        starts = [0]
        for _, count in classes:
            starts.append(starts[-1] + count)
        self.starts = tuple(starts[:-1])
        #: class indices in name order (the sorted-key order of the rows)
        self.by_name = tuple(
            sorted(range(len(classes)), key=lambda index: classes[index][0])
        )
        self.arity = arity
        self.params = params
        self.formats = tuple(
            f"{n}{column.typecode}" for n, column in zip(arity, params)
        )
        self.widths = tuple(n * column.itemsize for n, column in zip(arity, params))
        self.class_of = _column(
            [index for index, (_, count) in enumerate(classes) for _ in range(count)]
        )
        self.nodes = _column(nodes)
        self.pending = _column(pending)
        table = sorted(set(priorities), reverse=True)
        rank = {priority: index for index, priority in enumerate(table)}
        self.priorities = tuple(table)
        self.ranks = _column([rank[priority] for priority in priorities])
        self.edge_starts = _column(edge_starts)
        self.edge_deps = _column(edge_deps)
        self.consumers = _column(consumers)
        self.missing = missing

    def __len__(self) -> int:
        return len(self.class_of)

    @property
    def sorted_rows(self) -> Iterator[int]:
        """Every row, in sorted-key order."""
        return chain.from_iterable(self.class_rows(index) for index in self.by_name)

    def class_rows(self, index: int) -> range:
        """The rows of class ``index``."""
        start = self.starts[index]
        return range(start, start + self.classes[index][1])

    def param_column(self, index: int, position: int) -> array:
        """Param ``position`` of every row of class ``index``, in row
        order."""
        return self.params[index][position :: self.arity[index]]

    def keys(self, rows: Iterable[int]) -> list[tuple]:
        """The key, ``(class name, params)``, of each of ``rows``: the
        tuples are built here (and in :class:`RunningTask`), not kept."""
        classes, class_of, starts = self.classes, self.class_of, self.starts
        keys = []
        for row in rows:
            index = class_of[row]
            at = (row - starts[index]) * self.widths[index]
            params = unpack_from(self.formats[index], self.params[index], at)
            keys.append((classes[index][0], params))
        return keys

    def key(self, row: int) -> tuple:
        return self.keys((row,))[0]

    def successors(self, row: int) -> list[tuple[int, int]]:
        """``row``'s edges: (index into its class's ``out_deps``, consumer
        row) pairs, in (flow, dep) order."""
        edges = range(self.edge_starts[row], self.edge_starts[row + 1])
        return [(self.edge_deps[j], self.consumers[j]) for j in edges]


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
        """Evaluate every class's domain, placement and priority against
        ``md``, then resolve every output dep to its consumer's row and
        count each row's pending inputs as the edges into it. A missing
        consumer is refused unless told otherwise."""
        #: key -> row number, while the successors are resolved
        row_of: dict[tuple, int] = {}
        nodes: list[int] = []
        priorities: list[float] = []
        domains = []
        for cls in self.classes.values():
            # rows in params order, the order PaRSEC's startup sweep
            # walks a class's parameter space in (and the template's
            # sorted-key order without a sort per use)
            domain = sorted(map(tuple, cls.domain(md)))
            for params in domain:
                node = cls.placement(params, md)
                if not 0 <= node < n_nodes:
                    raise DataflowError(
                        f"{cls.name}{params} placed on invalid node {node}"
                    )
                key = (cls.name, params)
                if key in row_of:
                    raise DataflowError(f"duplicate task instance {cls.name}{params}")
                row_of[key] = len(row_of)
                nodes.append(node)
                priority = float(cls.priority(params, md)) if cls.priority else 0.0
                # a NaN would break the ordering the priority table is
                # sorted by, and an infinity is no rank either
                if not -inf < priority < inf:
                    raise DataflowError(
                        f"{cls.name}{params} has non-finite priority {priority}"
                    )
                priorities.append(priority)
            domains.append((cls, domain))
        # a successor resolves to its consumer's row, whatever class it
        # belongs to: a second pass, once every key is known. Each row's
        # edges are in (flow, dep) order, an index into its class's
        # ``out_deps`` and the consumer's row, and each edge is one of its
        # consumer's pending inputs. Unvalidated, a consumer missing from
        # the table is row ``len(row_of)``, past every column, and its key
        # goes to ``missing``, for the runtime to report when the producer
        # completes.
        absent = len(row_of)
        pending = [0] * absent
        edge_starts = [0]
        edge_deps: list[int] = []
        consumers: list[int] = []
        missing: dict[int, tuple] = {}
        for cls, domain in domains:
            deps: list[tuple] = []
            for index, (flow, dep) in enumerate(cls.out_deps):
                # an arrow lands on a flow its consumer's class has: checked
                # once per dep, not per edge (a class missing from the PTG
                # is reported by the dep's first edge, a missing consumer)
                target = self.classes.get(dep.target_class)
                if target is not None and dep.flow not in target.flow_names:
                    raise DataflowError(
                        f"{cls.name}.{flow.name} -> {dep.target_class}.{dep.flow}: "
                        f"{dep.target_class} has no flow {dep.flow!r}"
                    )
                deps.append((index, flow, dep.guard, dep.param_map, dep.target_class))
            for params in domain:
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
                        missing[len(consumers)] = consumer_key
                        found = absent
                    else:
                        pending[found] += 1
                    edge_deps.append(index)
                    consumers.append(found)
                edge_starts.append(len(consumers))
        del row_of
        return Template(
            tuple((cls.name, len(domain)) for cls, domain in domains),
            tuple(_arity(cls, domain) for cls, domain in domains),
            tuple(_params_column(cls, domain) for cls, domain in domains),
            nodes,
            pending,
            priorities,
            edge_starts,
            edge_deps,
            consumers,
            missing,
        )


def _arity(cls: TaskClass, domain: list[tuple]) -> int:
    """How many params each row of ``cls`` has (as declared, if none)."""
    return len(domain[0]) if domain else len(cls.params)


def _params_column(cls: TaskClass, domain: list[tuple]) -> array:
    """``cls``'s params over its rows, flat: one arity, ints only."""
    arity = _arity(cls, domain)
    for params in domain:
        if len(params) != arity:
            raise DataflowError(
                f"{cls.name}{params} has {len(params)} params, its class {arity}"
            )
    try:
        return _column([value for params in domain for value in params])
    except TypeError:
        raise DataflowError(f"{cls.name}: task params must be ints") from None


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
        self.md = md
        self.template = template
        #: the task class of each of the template's class indices
        self.classes: tuple[TaskClass, ...] = tuple(
            ptg.classes[name] for name, _ in template.classes
        )
        self.class_of = template.class_of
        #: per class index, how a running task reads its params: a C
        #: function from a row's byte offset in the class's params column
        #: to the tuple, the class's first row and its bytes per row (per
        #: run, not in the template: a ``Struct`` does not pickle)
        self.layout = tuple(
            (partial(Struct(fmt).unpack_from, column), start, width)
            for fmt, column, start, width in zip(
                template.formats, template.params, template.starts, template.widths
            )
        )
        self.nodes: list[int] = list(template.nodes)
        self.pending: list[int] = list(template.pending)
        self.flags = bytearray(len(template))
        self.epochs: dict[int, int] = {}
        self.stolen_from: dict[int, int] = {}
        self.payloads: dict[int, dict[str, Any]] = {}
        self.tags: dict[int, dict[str, Any]] = {}

    def __len__(self) -> int:
        return len(self.flags)

    def cls(self, row: int) -> TaskClass:
        return self.classes[self.class_of[row]]

    def key(self, row: int) -> tuple:
        return self.template.key(row)

    def label(self, row: int) -> str:
        name, params = self.template.key(row)
        return f"{name}{params}"

    def row(self, class_name: str, params: tuple) -> int:
        """The row of a key: a scan of its class's rows, for tests and
        diagnostics (no run path looks a key up)."""
        key = (class_name, tuple(params))
        template = self.template
        for index, (name, _) in enumerate(template.classes):
            if name == class_name:
                rows = template.class_rows(index)
                for row, row_key in zip(rows, template.keys(rows)):
                    if row_key == key:
                        return row
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
    """The view of the task a worker is running, alive from the worker's
    claim of its (ready) row to its completion: what
    :class:`~repro.parsec.taskclass.TaskContext` and a body read of it
    (class, key, parameters, inputs, label, producer tags) and the one
    write it makes, :meth:`commit`."""

    __slots__ = ("graph", "row", "key", "cls", "params", "inputs")

    def __init__(self, graph: TaskGraph, row: int) -> None:
        self.graph = graph
        self.row = row
        # the row's params and key, read from its class's flat column
        # (Template.keys does the same for rows nothing runs)
        index = graph.class_of[row]
        self.cls = cls = graph.classes[index]
        unpack, start, width = graph.layout[index]
        self.params = params = unpack((row - start) * width)
        self.key = (cls.name, params)
        self.inputs: Mapping[str, Any] = graph.payloads.get(row, _NO_INPUTS)

    @property
    def label(self) -> str:
        return f"{self.key[0]}{self.params}"

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
