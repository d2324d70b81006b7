"""Building and rendering :class:`~repro.obs.report.RunReport` objects.

The report joins three sources for one execution:

- the result object (timing, task counts) and the cluster's
  :class:`~repro.sim.faults.FaultReport` (recovery counters, all zero
  when no plan is installed);
- the cluster's :class:`~repro.obs.registry.MetricsRegistry` snapshot
  (counters, gauges, histograms, phase timers);
- trace-derived statistics (startup idle, communication/computation
  overlap, busy fraction) when the run was traced.

Everything serialized is a function of the virtual clock and the
deterministic simulation, so identical seeds produce byte-identical
JSONL lines.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Optional

from repro.analysis.metrics import (
    blocking_comm_fraction,
    busy_fraction,
    comm_compute_overlap,
    startup_idle_fraction,
)
from repro.analysis.report import format_table
from repro.obs.report import RunReport
from repro.obs.result import RunResult
from repro.sim.faults import FaultReport

__all__ = ["build_run_report", "render_run_report", "trace_stats"]

#: ``RunReport.recovery`` of a run with no fault plan installed
_NO_FAULTS = asdict(FaultReport())


def trace_stats(trace) -> dict:
    """Deterministic summary statistics of a populated trace."""
    if trace is None or not getattr(trace, "events", None):
        return {}
    return {
        "n_events": len(trace.events),
        "makespan_s": trace.makespan(),
        "busy_fraction": busy_fraction(trace),
        "startup_idle_fraction": startup_idle_fraction(trace),
        "comm_compute_overlap": comm_compute_overlap(trace),
        "blocking_comm_fraction": blocking_comm_fraction(trace),
    }


def build_run_report(
    result: RunResult,
    cluster,
    workload: str = "",
    scale: Optional[str] = None,
    seed: Optional[int] = None,
) -> RunReport:
    """Assemble the structured report of one finished execution and its metrics."""
    snapshot = dict(result.metrics or {})
    phases = snapshot.pop("phases", {})
    return RunReport(
        runtime=result.runtime_name,
        workload=workload,
        execution_time=result.execution_time,
        n_tasks=result.n_tasks,
        variant=getattr(result, "variant", None),
        scale=scale,
        n_nodes=cluster.n_nodes,
        cores_per_node=cluster.cores_per_node,
        data_mode=cluster.data_mode.value,
        seed=seed,
        phases=phases,
        metrics=snapshot,
        trace_stats=trace_stats(cluster.trace),
        recovery=asdict(cluster.faults.report) if cluster.faults else dict(_NO_FAULTS),
    )


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_run_report(report: RunReport) -> str:
    """A human-readable multi-table view of one report."""
    head_rows = [
        ["runtime", report.runtime + (f" [{report.variant}]" if report.variant else "")],
        ["workload", report.workload or "-"],
        ["scale", report.scale or "-"],
        ["cluster", f"{report.n_nodes} nodes x {report.cores_per_node} cores"],
        ["data mode", report.data_mode or "-"],
        ["seed", "-" if report.seed is None else str(report.seed)],
        ["execution time", f"{report.execution_time:.6f}s (virtual)"],
        ["tasks", str(report.n_tasks)],
    ]
    parts = [format_table(["field", "value"], head_rows, title="Run")]
    if report.phases:
        parts.append(
            format_table(
                ["phase", "virtual s", "count"],
                [
                    [name, f"{p['virtual_s']:.6f}", str(p["count"])]
                    for name, p in sorted(report.phases.items())
                ],
                title="Phases",
            )
        )
    counters = report.metrics.get("counters", {})
    if counters:
        parts.append(
            format_table(
                ["counter", "value"],
                [[k, _fmt(v)] for k, v in sorted(counters.items())],
                title="Counters",
            )
        )
    gauges = report.metrics.get("gauges", {})
    if gauges:
        parts.append(
            format_table(
                ["gauge", "value"],
                [[k, _fmt(v)] for k, v in sorted(gauges.items())],
                title="Gauges",
            )
        )
    histograms = report.metrics.get("histograms", {})
    if histograms:
        parts.append(
            format_table(
                ["histogram", "count", "sum", "min", "max"],
                [
                    [k, str(h["count"]), _fmt(h["sum"]), _fmt(h["min"]), _fmt(h["max"])]
                    for k, h in sorted(histograms.items())
                ],
                title="Histograms",
            )
        )
    if report.trace_stats:
        parts.append(
            format_table(
                ["trace stat", "value"],
                [[k, _fmt(v)] for k, v in sorted(report.trace_stats.items())],
                title="Trace statistics",
            )
        )
    nonzero_recovery = {k: v for k, v in report.recovery.items() if v}
    if nonzero_recovery:
        parts.append(
            format_table(
                ["recovery counter", "value"],
                [[k, _fmt(v)] for k, v in sorted(nonzero_recovery.items())],
                title="Recovery",
            )
        )
    return "\n\n".join(parts)
