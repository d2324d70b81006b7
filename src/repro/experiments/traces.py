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

:data:`FIG10_11` and :data:`FIG12_13` declare the two experiments
``repro traces`` runs; each has a report and claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.analysis.gantt import render_gantt
from repro.analysis.metrics import (
    blocking_comm_fraction,
    category_time_share,
    comm_compute_overlap,
    startup_idle_fraction,
)
from repro.core import api
from repro.core.variants import variant_by_name
from repro.experiments.calibration import PAPER_NODES, cell_config
from repro.experiments.claims import Experiment, ShapeCheck, render_claims
from repro.experiments.sweep import SweepCell
from repro.sim.trace import TaskCategory, TraceRecorder

__all__ = [
    "FIG10_11",
    "FIG12_13",
    "TraceExperiment",
    "comm_vs_gemm_share",
    "fig10_11_claims",
    "fig10_11_report",
    "fig12_13_claims",
    "fig12_13_report",
]

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

    def gantt(self) -> str:
        """100 columns, one row per thread of the first node."""
        return render_gantt(self.trace, max_rows=TRACE_CORES, title=self.name)


def _traced_run(runtime: str, scale: str, n_nodes: Optional[int]) -> TraceExperiment:
    """One traced t2_7 run on ``runtime`` (``legacy`` or a variant) plus
    its figure quantities, on ``n_nodes`` or by default the paper's 32
    (8 below paper scale)."""
    name = "trace of original NWChem code"
    if runtime != "legacy":
        variant = variant_by_name(runtime)
        name = f"trace of {runtime} ({variant.describe()})"
    n_nodes = n_nodes or (8 if scale in ("tiny", "small") else PAPER_NODES)
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


def _trace_cells(runtimes, scale: str, n_nodes: Optional[int]) -> list[SweepCell]:
    kwargs = dict(scale=scale, n_nodes=n_nodes)
    return [SweepCell((r,), _traced_run, dict(runtime=r, **kwargs)) for r in runtimes]


def comm_vs_gemm_share(experiment: TraceExperiment) -> float:
    """Figure 13's quantity: communication time relative to GEMM time."""
    shares = experiment.category_share
    gemm = shares.get(TaskCategory.GEMM, 0.0)
    comm = shares.get(TaskCategory.COMM, 0.0) + shares.get(TaskCategory.WRITE, 0.0)
    if gemm == 0:
        return 0.0
    return comm / gemm


def fig10_11_claims(pair: tuple[TraceExperiment, TraceExperiment]) -> list[ShapeCheck]:
    """Figure 11's reading of the ``(v4, v2)`` pair: v2 "has too much
    idle time in the beginning", and the wasted start costs total time."""
    v4, v2 = pair
    idle = v2.startup_idle / v4.startup_idle if v4.startup_idle else float("inf")
    time = v2.execution_time / v4.execution_time
    return [
        ShapeCheck(
            "v2 idles far more at the start than v4 (> 1.5x)",
            v2.startup_idle > 1.5 * v4.startup_idle,
            f"startup idle v2/v4 = {idle:.2f}x",
        ),
        ShapeCheck(
            "v2 slower than v4 (> 1.10x)",
            v2.execution_time > 1.10 * v4.execution_time,
            f"time v2/v4 = {time:.2f}x",
        ),
    ]


def fig12_13_claims(original: TraceExperiment) -> list[ShapeCheck]:
    """Figure 12: communication "is not overlapped"; Figure 13: the
    communication spans are comparable to the GEMM spans."""
    ratio = comm_vs_gemm_share(original)
    gemm = original.category_share.get(TaskCategory.GEMM, 0.0)
    comm = original.comm_fraction
    return [
        ShapeCheck(
            "no comm/compute overlap within a rank",
            original.overlap == 0.0,
            f"overlap {100 * original.overlap:.1f}%",
        ),
        ShapeCheck(
            "comm spans comparable to GEMM spans (> 0.5x)",
            ratio > 0.5,
            f"comm/GEMM = {ratio:.2f}x",
        ),
        ShapeCheck("GEMMs > 20% of busy time", gemm > 0.2, f"{100 * gemm:.1f}%"),
        ShapeCheck("comm > 30% of busy time", comm > 0.3, f"{100 * comm:.1f}%"),
    ]


def fig10_11_report(pair: tuple[TraceExperiment, TraceExperiment]) -> str:
    """The Figure 10 and 11 traces with their startup idle, and the claims."""
    v4, v2 = pair
    sections = [
        f"=== {figure}: {e.name}\n"
        f"time={e.execution_time:.4f}s  startup idle={100 * e.startup_idle:.1f}%\n"
        + e.gantt()
        for e, figure in ((v4, "Figure 10"), (v2, "Figure 11"))
    ]
    return "\n\n".join(sections + [render_claims(fig10_11_claims(pair))])


def fig12_13_report(original: TraceExperiment) -> str:
    """The original code's trace and busy-time shares, Figure 13's zoom."""
    by_share = sorted(original.category_share.items(), key=lambda kv: -kv[1])
    shares = {category.value: f"{100 * share:.1f}%" for category, share in by_share}
    zoom = render_gantt(
        original.trace,
        max_rows=TRACE_CORES,
        t_min=0.0,
        t_max=original.execution_time / 10.0,
    )
    return "\n\n".join(
        [
            f"=== Figure 12/13: {original.name}\n"
            f"time={original.execution_time:.4f}s  "
            f"overlap={100 * original.overlap:.0f}%  "
            f"comm share={100 * original.comm_fraction:.1f}%  "
            f"comm/GEMM={comm_vs_gemm_share(original):.2f}x\n"
            f"busy time shares: {shares}\n"
            + original.gantt(),
            "Figure 13 (zoom into the first tenth, 'so that individual tasks "
            f"can be discerned'):\n{zoom}",
            render_claims(fig12_13_claims(original)),
        ]
    )


#: Figure 10 (v4) and Figure 11 (v2), reduced to the ``(v4, v2)`` pair;
#: ``n_nodes=None`` is the paper's 32 nodes (8 below paper scale)
FIG10_11 = Experiment(
    name="fig10_11",
    cells=partial(_trace_cells, ("v4", "v2")),
    reduce=lambda results, **_: (results[("v4",)], results[("v2",)]),
    report=fig10_11_report,
    claims=fig10_11_claims,
    defaults=dict(scale="paper", n_nodes=None),
    paper_shape=True,
)

#: Figures 12/13: the original code, traced
FIG12_13 = Experiment(
    name="fig12_13",
    cells=partial(_trace_cells, ("legacy",)),
    reduce=lambda results, **_: results[("legacy",)],
    report=fig12_13_report,
    claims=fig12_13_claims,
    defaults=dict(scale="paper", n_nodes=None),
    paper_shape=True,
)
