"""Trace experiments: Figures 10/11 (v4 vs v2) and 12/13 (original).

The paper generates these with PaRSEC's instrumentation and reads them
qualitatively; we run the same configurations with tracing enabled and
extract the quantities the prose cites:

- Fig. 10 vs 11: "variant v2 — which lacks task priorities — has too
  much idle time in the beginning" → startup idle fraction and total
  time, v2 vs v4.
- Fig. 12: "communication is interleaved with computation, however it
  is not overlapped" → the comm/compute overlap metric for the legacy
  runtime (≈0 by construction of the blocking calls).
- Fig. 13 (zoom): "the lack of overlapping is evident by the length of
  the blue, purple and light green rectangles in comparison to the
  length of the red [GEMMs]" → per-category time shares: communication
  spans are a substantial fraction of GEMM spans.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.gantt import render_gantt
from repro.analysis.metrics import (
    blocking_comm_fraction,
    category_time_share,
    comm_compute_overlap,
    startup_idle_fraction,
)
from repro.core import api
from repro.core.variants import V2, V4
from repro.experiments.calibration import PAPER_NODES, cell_config
from repro.sim.trace import TaskCategory, TraceRecorder

__all__ = ["TraceExperiment", "run_fig10_11", "run_fig12_13"]

#: the trace figures were taken with 7 worker threads per node
TRACE_CORES = 7


@dataclass
class TraceExperiment:
    """One traced run plus the derived figure quantities."""

    name: str
    execution_time: float
    startup_idle: float
    #: within-thread comm/compute overlap (0 for blocking code)
    overlap: float
    #: share of thread-busy time spent in blocking data movement
    comm_fraction: float
    category_share: dict
    trace: TraceRecorder

    def gantt(self, width: int = 110, max_rows: int = 14) -> str:
        return render_gantt(
            self.trace, width=width, max_rows=max_rows, title=self.name
        )


def _traced_run(name: str, runtime: str, scale: str, n_nodes: int) -> TraceExperiment:
    """One traced t2_7 run on ``runtime`` plus its figure quantities."""
    config = cell_config(TRACE_CORES, n_nodes, trace=True)
    workload = api.build("t2_7", config, scale=scale)
    run = api.run(workload, runtime=runtime, config=config)
    trace = workload.cluster.trace
    return TraceExperiment(
        name=name,
        execution_time=run.execution_time,
        startup_idle=startup_idle_fraction(trace),
        overlap=comm_compute_overlap(trace),
        comm_fraction=blocking_comm_fraction(trace),
        category_share=category_time_share(trace),
        trace=trace,
    )


def run_fig10_11(
    scale: str = "paper", n_nodes: int = PAPER_NODES
) -> tuple[TraceExperiment, TraceExperiment]:
    """The Figure 10 (v4) and Figure 11 (v2) pair."""

    def trace(variant):
        name = f"trace of {variant.name} ({variant.describe()})"
        return _traced_run(name, variant.name, scale, n_nodes)

    return trace(V4), trace(V2)


def run_fig12_13(scale: str = "paper", n_nodes: int = PAPER_NODES) -> TraceExperiment:
    """The Figure 12/13 run: the original code, traced."""
    return _traced_run("trace of original NWChem code", "legacy", scale, n_nodes)


def comm_vs_gemm_share(experiment: TraceExperiment) -> float:
    """Figure 13's quantity: communication time relative to GEMM time."""
    shares = experiment.category_share
    gemm = shares.get(TaskCategory.GEMM, 0.0)
    comm = shares.get(TaskCategory.COMM, 0.0) + shares.get(TaskCategory.WRITE, 0.0)
    if gemm == 0:
        return 0.0
    return comm / gemm
