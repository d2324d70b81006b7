"""The PTG container and its instantiation into a task graph.

A :class:`PTG` is a set of task classes. :meth:`PTG.instantiate`
evaluates every class's symbolic domain against the metadata (the
product of the inspection phase) into a *template* — one row per task
instance, in creation order, of its class, parameters, placement,
priority and pending input count — and then materializes fresh
:class:`TaskInstance` s from the template.

Building the template also *validates the dataflow*: every active input
dep must be fed by exactly the right number of active output deps on the
producer side. A mismatch — a task that would wait forever, or a
delivery nobody expects — is a programming error in the PTG and raises
:class:`~repro.util.errors.DataflowError` up front rather than showing
up as a simulation that silently never terminates.

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

from repro.parsec.taskclass import TaskClass, TaskInstance
from repro.util.errors import DataflowError

__all__ = ["PTG", "TaskGraph"]

#: One class's instances in creation order: (class name, rows), each row
#: ``(key, params, node, priority, pending)``.
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
            for key, params, node, priority, pending in rows:
                instances[key] = TaskInstance(cls, params, node, priority, pending)
        return TaskGraph(self, md, instances)

    def template(self, md: Any, n_nodes: int, validate: bool = True) -> Template:
        """Evaluate every class's domain, placement, priority and input
        count against ``md``; checked by :meth:`_validate` unless told
        otherwise."""
        keys: dict[tuple, int] = {}
        template = []
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
                if key in keys:
                    raise DataflowError(f"duplicate task instance {cls.name}{params}")
                pending = keys[key] = cls.input_count(params, md)
                priority = float(cls.priority(params, md)) if cls.priority else 0.0
                rows.append((key, params, node, priority, pending))
            template.append((cls.name, tuple(rows)))
        template = tuple(template)
        if validate:
            self._validate(template, keys, md)
        return template

    def _validate(self, template: Template, pending: dict, md: Any) -> None:
        """Check every expected delivery has exactly one producer.

        Iterates dep-outer / row-inner so each dep's guard and param map
        are bound once per class rather than once per instance.
        """
        incoming: dict[tuple, int] = defaultdict(int)
        for name, rows in template:
            for flow in self.classes[name].flows:
                for dep in flow.outputs:
                    guard = dep.guard
                    param_map = dep.param_map
                    target_class = dep.target_class
                    target_flow = dep.flow
                    for _, params, _, _, _ in rows:
                        if guard is not None and not guard(params, md):
                            continue
                        consumer_key = (target_class, tuple(param_map(params, md)))
                        if consumer_key not in pending:
                            raise DataflowError(
                                f"{name}{params}.{flow.name} targets missing "
                                f"task {target_class}{consumer_key[1]}"
                            )
                        incoming[(consumer_key, target_flow)] += 1
        for name, rows in template:
            flows = self.classes[name].flows
            for key, params, _, _, expected in rows:
                actual = sum(incoming.get((key, flow.name), 0) for flow in flows)
                if actual != expected:
                    raise DataflowError(
                        f"{name}{params} expects {expected} deliveries but the "
                        f"dataflow produces {actual}"
                    )


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

    def by_class(self) -> dict[str, list[TaskInstance]]:
        groups: dict[str, list[TaskInstance]] = defaultdict(list)
        for instance in self.instances.values():
            groups[instance.cls.name].append(instance)
        return dict(groups)

    def initially_ready(self) -> list[TaskInstance]:
        """Instances with no pending inputs (in creation order)."""
        return [t for t in self.instances.values() if t.pending == 0]
