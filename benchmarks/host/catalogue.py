"""Names, units and bounds of every workload and metric — one place.

``BENCHMARK.json`` at the repository root is :func:`manifest` written
out; the self-test checks they agree.

Two clocks. A name starting ``virt_`` is simulated time (deterministic,
compared exactly); every other metric is host time, memory or a count.

Three groups of metrics:

``END_TO_END``
    what every workload reports with tracing off. These are the
    ``end_to_end`` entries of ``BENCHMARK.json``.
``SCOPED``
    end-to-end metrics that exist on some workloads only, or that are
    exact and therefore read the same on every run (a failure fraction
    that is 0, a virtual time). The driver's format wants every
    ``end_to_end`` metric from every workload, never 0 and never
    constant, so these ride in ``per_layer`` there; ``compare`` still
    holds them to the bounds given here.
``PER_LAYER``
    one layer each, from the traced run, a probe or a count.

Bounds. The issue asked for 10%. On this shared host the same commit's
``wall_s`` spreads 2-4% between runs in a quiet hour and 10-25% in a noisy
one, raw; calibration (see :mod:`calibrate`) roughly halves that. A bound
has to hold three times the spread seen, so every host-time bound is the
25% the driver allows at most. Claims of a gain go through ``compare`` and
interleaved A/B pairs, not through these bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "WORKLOADS",
    "END_TO_END",
    "SCOPED",
    "PER_LAYER",
    "NOT_MEASURED",
    "RUN_SECONDS",
    "manifest",
]

#: ``--seconds`` the driver passes: the timed body of each workload is a
#: fixed list of ops sized to about this long on the 2-core reference host
RUN_SECONDS = 16

#: value a traced run prints for a per-layer metric another workload owns
#: (the driver's format wants every name on every run; no real value of
#: any metric here is negative)
NOT_MEASURED = -1.0

WORKLOADS = {
    "fig9_paper_synth": (
        "the paper's headline experiment at the paper's size, SYNTH, registry off: "
        "the DES core, parsec scheduler/comm and legacy+ga do all the work"
    ),
    "ccsd_small_real": (
        "numerics-bound use of the same runtimes: tce/NumPy GEMM-SORT and ordered "
        "GA accumulation dominate, the engine is the minority; exposes peak RSS"
    ),
    "rbgs_ladder_synth": (
        "node-count ladder (4/16/64 nodes) at fixed work per node on a stencil DAG, "
        "registry on: host cost per unit of work should stay flat"
    ),
    "knobs_chaos_small": (
        "every knob-on twin path: faults+retransmit, stealing, coalescing, "
        "remote-block cache, ordered accumulation, with their built-in checks"
    ),
    "serve_mixed": (
        "the job service under 2 closed-loop clients: set-up, pickling, pool spawn, "
        "journal fsync and HTTP dominate; cold jobs run beside cache hits"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: share of the baseline median by which it may worsen (None: no bound)
    bound: Optional[float] = None
    #: absolute slack that also applies (seconds or ms, the metric's unit)
    floor: float = 0.0
    #: how it is measured: traced | probe | count | exact | untraced
    kind: str = "untraced"
    definition: str = ""


END_TO_END = (
    Metric(
        "setup_s",
        "s",
        "lower",
        0.25,
        floor=0.05,
        definition="child start to first timed op: imports + median of 3 set-ups "
        "(cluster/workload build, precompute_inspection, daemon boot + /healthz, "
        "warm-up op)",
    ),
    Metric("wall_s", "s", "lower", 0.25, definition="host seconds of the timed body"),
    Metric(
        "cpu_s",
        "s",
        "lower",
        0.25,
        definition="user+sys CPU of the child and its descendants over the body",
    ),
    Metric(
        "sim_gemms_per_s",
        "1/s",
        "higher",
        0.25,
        definition="sum over simulations of the workload IR's n_gemms / wall_s",
    ),
    Metric(
        "peak_rss_mb",
        "MB",
        "lower",
        0.25,
        definition="max RSS of the workload's child (serve_mixed: sampled peak of "
        "daemon + pool children)",
    ),
)

SCOPED = (
    Metric(
        "failed_ops_frac",
        "ratio",
        "lower",
        0.0,
        kind="exact",
        definition="ops failing any check / ops attempted",
    ),
    Metric(
        "virt_time_s",
        "virt_s",
        "lower",
        0.0,
        kind="exact",
        definition="sum of simulated execution_time over the fault-free simulations",
    ),
    Metric(
        "virt_v5_speedup",
        "ratio",
        "higher",
        0.0,
        kind="exact",
        definition="fig9_paper_synth: original@7 / v5@15 (paper: about 2.1x)",
    ),
    Metric(
        "job_cold_p50_ms",
        "ms",
        "lower",
        0.25,
        definition="serve_mixed: median submit-to-result latency, cold point jobs",
    ),
    Metric(
        "job_hit_p50_ms",
        "ms",
        "lower",
        0.25,
        floor=0.5,
        definition="serve_mixed: median latency of the resubmits (cache hits)",
    ),
    Metric(
        "jobs_per_s",
        "1/s",
        "higher",
        0.25,
        definition="serve_mixed: jobs / wall_s (closed loop, 2 clients)",
    ),
)


def _layer(name, unit, better="lower", kind="traced", definition=""):
    return Metric(name, unit, better, None, kind=kind, definition=definition)


_RUNTIMES = ("legacy", "v5", "dtd")
_RUNGS = ("n4", "n16", "n64")

PER_LAYER = (
    _layer("workloads.build_s", "s", definition="Cluster(...) + build_workload"),
    _layer(
        "tce.numerics_share",
        "ratio",
        definition="1 - exec(SYNTH)/exec(REAL), ccsd v5 cell",
    ),
    _layer(
        "core.inspect_cold_s",
        "s",
        definition="inspect_subroutine without a warm InspectionCache",
    ),
    _layer("core.inspect_cached_s", "s", definition="inspect_subroutine, warm cache"),
    _layer("core.ptg_build_s", "s", definition="build_ccsd_ptg"),
    _layer(
        "core.ptg_instantiate_s",
        "s",
        kind="probe",
        definition="ptg.instantiate, rung n16",
    ),
    _layer(
        "core.inspect_cache_pickle_ms",
        "ms",
        kind="probe",
        definition="pickle round trip of a precomputed InspectionCache",
    ),
    _layer("parsec.execute_s", "s", definition="ParsecRuntime.execute"),
    _layer("parsec.execute_us_per_task", "us", definition="... / n_tasks"),
    _layer("parsec.execute_us_per_message", "us", definition="... / messages_remote"),
    _layer(
        "parsec.dtd_execute_us_per_task",
        "us",
        definition="run_over_dtd wall / n_tasks",
    ),
    _layer(
        "parsec.steal_success_ratio",
        "ratio",
        "higher",
        "count",
        "steals_granted / steal_requests over the stealing-on chaos cells",
    ),
    _layer(
        "parsec.steal_overhead_ratio",
        "ratio",
        definition="host wall stealing on / off, rbgs chaos cells v1..v5",
    ),
    _layer("legacy.execute_s", "s", definition="LegacyRuntime.execute*"),
    _layer("legacy.execute_us_per_gemm", "us", definition="... / IR n_gemms"),
    _layer("ga.fetch_us", "us", kind="probe", definition="blocking remote ga.fetch"),
    _layer("ga.acc_us", "us", kind="probe", definition="ordered ga.accumulate, REAL"),
    _layer(
        "ga.cache_hit_ratio",
        "ratio",
        "higher",
        "count",
        "remote-block cache hits / lookups over the cache-on comm cells",
    ),
    _layer(
        "sim.network.messages_saved_frac",
        "ratio",
        "higher",
        "count",
        "1 - wire messages(both knobs) / wire messages(knobs off)",
    ),
    _layer(
        "ga.comm_knobs_overhead_ratio",
        "ratio",
        definition="host wall both knobs on / off, same comm cells",
    ),
    _layer("sim.engine.heap_events_per_s", "1/s", "higher", "probe", "Engine.timeout"),
    _layer(
        "sim.engine.timeline_events_per_s",
        "1/s",
        "higher",
        "probe",
        "timeline.timer",
    ),
    _layer(
        "sim.engine.lane_events_per_s",
        "1/s",
        "higher",
        "probe",
        "zero-delay cascade",
    ),
    _layer("sim.queues.store_ops_per_s", "1/s", "higher", "probe", "Store try_get/get"),
    _layer(
        "sim.resources.bandwidth_transfers_per_s",
        "1/s",
        "higher",
        "probe",
        "BandwidthResource.transfer",
    ),
    _layer("sim.cluster_build_ms.n64", "ms", definition="Cluster(...) at 64 nodes"),
    _layer(
        "sim.faults.overhead_ratio",
        "ratio",
        definition="host wall faulted / clean run of the same chaos cell",
    ),
    _layer(
        "obs.metrics_overhead_ratio",
        "ratio",
        definition="execute wall, registry on / off, rung n16 v5",
    ),
    _layer(
        "obs.trace_overhead_ratio",
        "ratio",
        definition="execute wall, trace on / off, rung n16 v5",
    ),
    _layer("analysis.report_build_ms", "ms", definition="snapshot + build_run_report"),
    _layer(
        "experiments.sweep.pool_efficiency",
        "ratio",
        "higher",
        "probe",
        "sum(cell_wall_s) / (jobs x wall_s), tiny fig9 grid at jobs=2",
    ),
    _layer(
        "experiments.sweep.spawn_ms",
        "ms",
        kind="probe",
        definition="12 no-op cells at jobs=2",
    ),
    _layer(
        "experiments.sweep.serial_us_per_cell",
        "us",
        kind="probe",
        definition="12 no-op cells at jobs=1, per cell",
    ),
    _layer("serve.submit_ms_p50", "ms", definition="client-side POST round trip"),
    _layer("serve.hit_ms_p90", "ms", definition="p90 latency of the resubmits"),
    _layer("serve.cold_point_ms_p90", "ms", definition="p90 latency, cold point jobs"),
    _layer("serve.cold_fig9_ms_p50", "ms", definition="median latency, cold fig9 jobs"),
    _layer(
        "serve.queue_wait_ms_p50",
        "ms",
        definition="POST answered to 'started' event, cold jobs",
    ),
    _layer(
        "serve.journal.append_us",
        "us",
        kind="probe",
        definition="Journal.append with fsync",
    ),
    _layer(
        "serve.journal.bytes_per_job",
        "B/job",
        definition="journal size at the end of the body / jobs",
    ),
    _layer("serve.replay_ms", "ms", definition="read_events + rebuild of the journal"),
    _layer("serve.stop_ms", "ms", definition="SIGTERM to daemon exit"),
    _layer(
        "serve.cache.hit_ratio",
        "ratio",
        "higher",
        "count",
        "result-cache hits / lookups over the body (must be exactly 0.5)",
    ),
    *(
        _layer(
            f"ladder.us_per_gemm.{runtime}.{rung}", "us", definition="op wall / n_gemms"
        )
        for runtime in _RUNTIMES
        for rung in _RUNGS
    ),
    *(
        _layer(f"ladder.cost_ratio.{runtime}", "ratio", definition="rung n64 / n16")
        for runtime in _RUNTIMES
    ),
    _layer(
        "harness.trace_overhead_frac",
        "ratio",
        definition="(traced wall_s - untraced) / untraced",
    ),
    _layer(
        "harness.stepwise_virt_match",
        "count",
        "higher",
        "exact",
        "1 if the stepwise path simulated exactly what the facade did",
    ),
)


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/host/run.py"],
        "paths": ["benchmarks/host"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in SCOPED + PER_LAYER
        ],
    }
