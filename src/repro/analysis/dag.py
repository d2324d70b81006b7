"""Task-graph structure analysis via networkx.

The paper's Section IV-A argument — segmenting the GEMM chains
"increases available parallelism" — is a statement about the task DAG's
*critical path*. This module materializes an instantiated
:class:`~repro.parsec.ptg.TaskGraph` as a networkx DiGraph weighted by
each task's modeled cost, and computes:

- the critical path length (a lower bound on any execution time),
- total work (the serial execution time),
- the average parallelism (work / span — the classic bound on useful
  cores),

so structural claims like "v5's DAG is far wider than v1's" can be
checked without running the simulator at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.parsec.ptg import TaskGraph
from repro.sim.cost import MachineModel, OpCost
from repro.sim.trace import TaskCategory

__all__ = ["DagProfile", "task_graph_to_networkx", "profile_task_graph"]


def _estimate_cost(
    category: TaskCategory, params: tuple, md, machine: MachineModel
) -> float:
    """Approximate one task's execution time from the cost model.

    Mirrors the charges the ptg_build bodies make (compute part plus
    memory bytes at the per-core copy rate); close enough for
    structural analysis.
    """
    L1 = params[0]
    spec = md.specs[L1]
    copy_rate = machine.core_copy_bytes_per_s

    def total(cost: OpCost) -> float:
        return cost.cpu + cost.bytes / copy_rate

    if category is TaskCategory.GEMM:
        gemm = md.gemm(*params)
        return total(machine.gemm(gemm.m, gemm.n, gemm.k))
    if category is TaskCategory.READ_A or category is TaskCategory.READ_B:
        gemm = md.gemm(*params)
        nbytes = (gemm.a if category is TaskCategory.READ_A else gemm.b).nbytes
        return nbytes / machine.ga_local_bytes_per_s + nbytes / copy_rate
    if category is TaskCategory.REDUCE:
        return total(machine.axpy(spec.c_size))
    if category is TaskCategory.DFILL:
        return total(machine.zero_fill(spec.c_size))
    if category is TaskCategory.SORT:
        cost = machine.zero_fill(spec.c_size)
        first = True
        for _ in spec.active_sorts:
            cost = cost + machine.sort4(spec.c_size, cache_warm=not first)
            cost = cost + machine.axpy(spec.c_size, cache_warm=True)
            first = False
        return total(cost)
    if category is TaskCategory.WRITE:
        seg = md.chains[L1].write_segs[params[-1]]
        return total(machine.axpy(seg.size))
    return machine.task_overhead_s


def task_graph_to_networkx(graph: TaskGraph, machine: MachineModel) -> nx.DiGraph:
    """Materialize the instantiated task graph with cost-weighted nodes."""
    md = graph.md
    dag = nx.DiGraph()
    for row in range(len(graph)):
        key = graph.key(row)
        category = graph.cls(row).category
        dag.add_node(
            key,
            cost=_estimate_cost(category, key[1], md, machine),
            category=category.value,
            node=graph.nodes[row],
        )
    for row in range(len(graph)):
        for _, consumer in graph.template.successors(row):
            dag.add_edge(graph.key(row), graph.key(consumer))
    return dag


@dataclass(frozen=True)
class DagProfile:
    """Structural summary of one task graph."""

    n_tasks: int
    n_edges: int
    total_work: float      # sum of task costs (serial time)
    critical_path: float   # span: longest cost-weighted path
    critical_length: int   # tasks on that path

    @property
    def average_parallelism(self) -> float:
        """Work / span — the classic upper bound on useful cores."""
        if self.critical_path == 0:
            return 0.0
        return self.total_work / self.critical_path


def profile_task_graph(graph: TaskGraph, machine: MachineModel) -> DagProfile:
    """Critical-path/work analysis of an instantiated task graph."""
    dag = task_graph_to_networkx(graph, machine)
    total_work = sum(data["cost"] for _, data in dag.nodes(data=True))
    # longest path with node weights: push each node's cost onto its
    # outgoing edges, then add the path head's cost
    weighted = nx.DiGraph()
    weighted.add_nodes_from(dag.nodes())
    for u, v in dag.edges():
        weighted.add_edge(u, v, w=dag.nodes[u]["cost"])
    path = nx.dag_longest_path(weighted, weight="w")
    span = sum(dag.nodes[node]["cost"] for node in path)
    return DagProfile(
        n_tasks=dag.number_of_nodes(),
        n_edges=dag.number_of_edges(),
        total_work=total_work,
        critical_path=span,
        critical_length=len(path),
    )
