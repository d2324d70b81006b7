"""Task-graph structure analysis, walked off the PTG's own template.

The paper's Section IV-A argument — segmenting the GEMM chains
"increases available parallelism" — is a statement about the task DAG's
*critical path*. This module walks an instantiated
:class:`~repro.parsec.ptg.TaskGraph`'s template the way the runtime
does — a row is ready once the edges into it (its ``pending`` count)
have all fired — weighting each task by its modelled cost, and
computes:

- the critical path length (a lower bound on any execution time),
- total work (the serial execution time),
- the average parallelism (work / span — the classic bound on useful
  cores),

so structural claims like "v5's DAG is far wider than v1's" can be
checked without running the simulator at all, and without a graph
object: like PaRSEC, nothing holds the DAG but the template's columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.parsec.ptg import TaskGraph
from repro.sim.cost import MachineModel, OpCost
from repro.sim.trace import TaskCategory
from repro.util.errors import DataflowError

__all__ = ["DagProfile", "profile_task_graph"]


def _estimate_cost(
    category: TaskCategory, params: tuple, md, machine: MachineModel
) -> float:
    """Approximate one task's execution time from the cost model.

    Mirrors the charges the ptg_build bodies make (compute part plus
    memory bytes at the per-core copy rate); close enough for
    structural analysis. A task outside the CCSD categories (a
    hand-built PTG's ``OTHER``) costs the per-task overhead alone.
    """
    copy_rate = machine.core_copy_bytes_per_s

    def total(cost: OpCost) -> float:
        return cost.cpu + cost.bytes / copy_rate

    if category is TaskCategory.GEMM:
        gemm = md.gemm(*params)
        return total(machine.gemm(gemm.m, gemm.n, gemm.k))
    if category is TaskCategory.READ_A or category is TaskCategory.READ_B:
        gemm = md.gemm(*params)
        block = gemm.a if category is TaskCategory.READ_A else gemm.b
        return total(machine.local_get(block.nbytes))
    if category is TaskCategory.REDUCE:
        return total(machine.axpy(md.specs[params[0]].c_size))
    if category is TaskCategory.DFILL:
        return total(machine.zero_fill(md.specs[params[0]].c_size))
    if category is TaskCategory.SORT:
        spec = md.specs[params[0]]
        cost = machine.zero_fill(spec.c_size)
        first = True
        for _ in spec.active_sorts:
            cost = cost + machine.sort4(spec.c_size, cache_warm=not first)
            cost = cost + machine.axpy(spec.c_size, cache_warm=True)
            first = False
        return total(cost)
    if category is TaskCategory.WRITE:
        seg = md.chains[params[0]].write_segs[params[-1]]
        return total(machine.axpy(seg.size))
    return machine.task_overhead_s


@dataclass(frozen=True)
class DagProfile:
    """Structural summary of one task graph."""

    n_tasks: int
    n_edges: int           # dataflow edges: the template's consumers column
    total_work: float      # sum of task costs (serial time)
    critical_path: float   # span: longest cost-weighted path

    @property
    def average_parallelism(self) -> float:
        """Work / span — the classic upper bound on useful cores."""
        if self.critical_path == 0:
            return 0.0
        return self.total_work / self.critical_path


def profile_task_graph(graph: TaskGraph, machine: MachineModel) -> DagProfile:
    """Critical-path/work analysis of an instantiated task graph, in
    Kahn order over its template's rows and successor edges."""
    template = graph.template
    categories = [cls.category for cls in graph.classes]
    rows = range(len(template))
    costs = [
        _estimate_cost(categories[index], params, graph.md, machine)
        for (_, params), index in zip(template.keys(rows), template.class_of)
    ]
    starts, consumers = template.edge_starts, template.consumers
    pending = list(template.pending)
    # the longest cost-weighted path into each row, then through it
    finish = [0.0] * len(costs)
    order = [row for row in rows if not pending[row]]
    for row in order:  # grows as rows become ready
        done = finish[row] = finish[row] + costs[row]
        for consumer in consumers[starts[row] : starts[row + 1]]:
            if done > finish[consumer]:
                finish[consumer] = done
            pending[consumer] -= 1
            if not pending[consumer]:
                order.append(consumer)
    if len(order) < len(costs):
        raise DataflowError(
            f"{len(costs) - len(order)} tasks never become ready: a cycle"
        )
    return DagProfile(
        n_tasks=len(costs),
        n_edges=len(consumers),
        total_work=sum(costs),
        critical_path=max(finish, default=0.0),
    )
