"""The PTG container and its instantiation into a task graph.

A :class:`PTG` is a set of task classes. :meth:`PTG.instantiate`
evaluates every class's symbolic domain against the metadata (the
product of the inspection phase) into a *template* — one row per task
instance, in creation order, of its key, placement, priority, pending
input count and resolved successors — and then materializes fresh
:class:`TaskInstance` s from the template.

Resolving the successors evaluates every output dep's guard and param
map once per template: each task's ``out`` lists the consumers its
active deps feed, keyed by the consumer's own table key, so a completion
walks data instead of re-evaluating the symbolic dataflow. Building the
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
the same path from template to instances.

Note on memory data: in real PaRSEC, flows can also read/write
distributed memory directly (``READ A <- A input_A(...)`` in Figure 1).
Here such memory endpoints live in the task *bodies* (READ tasks touch
the Global Array via local access, WRITE tasks accumulate into it),
which matches the paper's description of passing GA locations to PaRSEC
as opaque IDs resolved at execution time.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Optional

from repro.parsec.taskclass import EDGES, TaskClass, TaskInstance
from repro.util.errors import DataflowError

__all__ = ["PTG", "TaskGraph"]

#: One class's instances in creation order: (class name, rows), each row
#: ``(key, node, priority, pending, *edges)`` (``taskclass.EDGES``).
Template = tuple[tuple[str, tuple[tuple, ...]], ...]


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
        """Materialize the instance table for metadata ``md``."""
        if validate and self.key is not None and self.cache is not None:
            template = self.cache.template(
                (self.key, n_nodes), lambda: self.template(md, n_nodes)
            )
        else:
            template = self.template(md, n_nodes, validate)
        instances: dict[tuple, TaskInstance] = {}
        for name, rows in template:
            cls = self.classes[name]
            for row in rows:
                instances[row[0]] = TaskInstance(cls, row)
        return TaskGraph(self, md, instances)

    def template(self, md: Any, n_nodes: int, validate: bool = True) -> Template:
        """Evaluate every class's domain, placement, priority, input count
        and successors against ``md``; checked by :meth:`_validate`
        unless told otherwise."""
        canonical: dict[tuple, tuple] = {}
        heads = []
        for cls in self.classes.values():
            rows = []
            for params in cls.domain(md):
                params = tuple(params)
                node = cls.placement(params, md)
                if not 0 <= node < n_nodes:
                    raise DataflowError(
                        f"{cls.name}{params} placed on invalid node {node}"
                    )
                key = (cls.name, params)
                if key in canonical:
                    raise DataflowError(f"duplicate task instance {cls.name}{params}")
                canonical[key] = key
                priority = float(cls.priority(params, md)) if cls.priority else 0.0
                rows.append((key, node, priority, cls.input_count(params, md)))
            heads.append((cls, rows))
        # a successor resolves to its consumer's own key, whatever class it
        # belongs to: a second pass, once every key is known
        template = tuple(
            (cls.name, _with_successors(cls, rows, canonical, md, validate))
            for cls, rows in heads
        )
        if validate:
            self._validate(template)
        return template

    def _validate(self, template: Template) -> None:
        """Check every expected delivery has exactly one producer: count
        the resolved edges into each (consumer, flow)."""
        incoming: dict[tuple, int] = defaultdict(int)
        for name, rows in template:
            out_deps = self.classes[name].out_deps
            for row in rows:
                for j in range(EDGES, len(row), 2):
                    incoming[row[j + 1], out_deps[row[j]][1].flow] += 1
        for name, rows in template:
            flows = self.classes[name].flows
            for row in rows:
                key, expected = row[0], row[3]
                actual = sum(incoming.get((key, flow.name), 0) for flow in flows)
                if actual != expected:
                    raise DataflowError(
                        f"{name}{key[1]} expects {expected} deliveries but the "
                        f"dataflow produces {actual}"
                    )


def _with_successors(
    cls: TaskClass, rows: list, canonical: dict, md: Any, validate: bool
) -> tuple:
    """``cls``'s rows, each extended by its resolved output edges in
    (flow, dep) order: pairs of (index into ``cls.out_deps``, consumer
    key) appended to the row itself, so an edge costs two of its slots
    and nothing else (the memo holds one row per task of every
    template). The key is the consumer's own table key. Unvalidated, a
    consumer missing from the table keeps the key its dep names, and the
    runtime reports it when the producer completes."""
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
            found = canonical.get(consumer_key)
            if found is None:
                if validate:
                    raise DataflowError(
                        f"{cls.name}{params}.{flow.name} targets missing "
                        f"task {target_class}{consumer_key[1]}"
                    )
                found = consumer_key
            row += (index, found)
        completed.append(tuple(row))
    return tuple(completed)


class TaskGraph:
    """The materialized instance table plus dataflow bookkeeping."""

    def __init__(self, ptg: PTG, md: Any, instances: dict[tuple, TaskInstance]):
        self.ptg = ptg
        self.md = md
        self.instances = instances

    def __len__(self) -> int:
        return len(self.instances)

    def instance(self, class_name: str, params: tuple) -> TaskInstance:
        try:
            return self.instances[(class_name, tuple(params))]
        except KeyError:
            raise DataflowError(
                f"no instance {class_name}{tuple(params)} in task graph"
            ) from None

    def initially_ready(self) -> list[TaskInstance]:
        """Instances with no pending inputs (in creation order)."""
        return [t for t in self.instances.values() if t.pending == 0]
