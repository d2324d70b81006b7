"""The unified run facade: one entry point for every runtime.

``repro.run(workload, runtime=..., variant=..., config=RunConfig(...))``
executes any registered workload over the legacy coarse-grain runtime,
any of the five PaRSEC PTG variants, or the contrasted DTD model, and
returns a :class:`~repro.obs.result.RunResult` with a uniform shape:
virtual ``execution_time``, ``n_tasks``, ``recovery_counters()``, plus
— when the cluster's metrics registry is enabled — a ``metrics``
snapshot and a structured ``report``
(:class:`~repro.obs.report.RunReport`).

Workloads are addressed by registry token (``"t2_7:small"``,
``"ccsd:tiny"``, ``"rbgs:128x128"`` — see :mod:`repro.workloads`). A
multi-level workload runs level by level with an explicit barrier in
between — the legacy application's own synchronization structure
(Section III-A) — and the facade merges the per-level results into one.

The phase timers instrument the Section III-B pipeline on the virtual
clock: *inspection* (metadata collection), *ptg_build* (symbolic graph
construction), *execution*, and *validation* (output checksum in REAL
data mode). The legacy and DTD paths have no inspector/PTG, so they
record only *execution* (and *validation*).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.inspector import InspectionCache, inspect_subroutine
from repro.core.ptg_build import build_ccsd_ptg
from repro.core.variants import V5, VariantSpec, variant_by_name
from repro.ga.cache import RemoteCachePolicy
from repro.legacy.runtime import LegacyConfig, LegacyRuntime
from repro.obs.result import RunResult
from repro.parsec.runtime import ParsecRuntime
from repro.parsec.stealing import StealPolicy
from repro.sim.cluster import Cluster, ClusterConfig, DataMode
from repro.sim.cost import MachineModel
from repro.sim.network import CoalescePolicy
from repro.tce.t2_7 import T27Workload
from repro.util.errors import ConfigurationError
from repro.workloads import build_workload as _build_registered_workload
from repro.workloads import parse_workload_token
from repro.workloads.base import Workload

__all__ = ["RunConfig", "StealPolicy", "precompute_inspection", "run"]

#: ``runtime=`` spellings accepted by :func:`run`, besides "parsec".
_VARIANT_RUNTIMES = ("v1", "v2", "v3", "v4", "v5")

#: every additive counter a multi-level PaRSEC run sums across levels
_PARSEC_SUM_FIELDS = (
    "n_tasks",
    "messages_remote",
    "bytes_remote",
    "deliveries_local",
    "task_retries",
    "retransmits",
    "tasks_recomputed",
    "tasks_reassigned",
    "nodes_crashed",
    "recovery_overhead_s",
    "steal_requests",
    "steals_granted",
    "steals_denied",
    "chains_migrated",
    "migrated_flops",
    "steal_forwarded_bytes",
)

_DTD_SUM_FIELDS = (
    "n_tasks",
    "n_edges",
    "insertion_time",
    "messages_remote",
    "bytes_remote",
)


@dataclass(frozen=True)
class RunConfig:
    """Cluster shape and execution options for :func:`run`.

    The cluster fields (``n_nodes`` .. ``gpus_per_node``) only apply
    when the workload is given as a registry token and the facade
    builds the cluster itself; a pre-built workload object brings its
    own cluster and they are ignored.
    """

    n_nodes: int = 8
    cores_per_node: int = 4
    data_mode: DataMode = DataMode.REAL
    trace: bool = False
    metrics: bool = True
    machine: Optional[MachineModel] = None
    gpus_per_node: int = 0
    seed: int = 7
    #: PaRSEC: instantiate-time dataflow validation; REAL mode adds an
    #: output-checksum validation phase for every runtime.
    validate: bool = True
    #: PaRSEC node scheduler discipline (None = priority, the default).
    policy: Optional[object] = None
    #: Legacy runtime knobs (NXTVAL vs static assignment).
    legacy: Optional[LegacyConfig] = None
    #: PaRSEC: inter-node work stealing over the static chain placement
    #: (None = disabled, the paper's static distribution).
    stealing: Optional[StealPolicy] = None
    #: Workload imbalance knob (see :class:`~repro.tce.terms.TermBuilder`):
    #: chains with ``chain_id % skew_period == 0`` repeat their GEMM list
    #: ``skew_factor`` times. Only applies when the facade builds the
    #: workload from a registry token.
    skew_factor: int = 1
    skew_period: int = 0
    #: Comm optimization: per-destination message coalescing on the NIC
    #: (GA fetch requests and PaRSEC dataflow sends). None = off — the
    #: wire behavior the golden digests pin. Only applies when the
    #: facade builds the workload from a registry token; a pre-built
    #: workload object brings its own GlobalArrays.
    coalescing: Optional[CoalescePolicy] = None
    #: Comm optimization: bounded per-node software cache of fetched
    #: remote GA blocks, invalidated by write epochs. None = off. Token
    #: path only, like ``coalescing``.
    remote_cache: Optional[RemoteCachePolicy] = None
    #: PaRSEC: share inspected chain metadata across runs of the same
    #: workload structure + node count (the fig9 cores/node sweep). The
    #: phase timer still runs; only the redundant chain walk is skipped.
    inspection_cache: Optional[InspectionCache] = field(
        default=None, repr=False, compare=False
    )


def _build_cluster(config: RunConfig) -> Cluster:
    return Cluster(
        ClusterConfig(
            n_nodes=config.n_nodes,
            cores_per_node=config.cores_per_node,
            machine=config.machine or MachineModel(),
            data_mode=config.data_mode,
            trace_enabled=config.trace,
            metrics_enabled=config.metrics,
            gpus_per_node=config.gpus_per_node,
        )
    )


def _build_workload(token: str, config: RunConfig) -> Workload:
    """Build the workload a registry token names on a fresh cluster."""
    cluster = _build_cluster(config)
    ga = None
    if config.coalescing is not None or config.remote_cache is not None:
        from repro.ga.runtime import GlobalArrays

        ga = GlobalArrays(
            cluster,
            coalescing=config.coalescing,
            remote_cache=config.remote_cache,
        )
    return _build_registered_workload(
        token,
        cluster,
        ga,
        seed=config.seed,
        skew_factor=config.skew_factor,
        skew_period=config.skew_period,
    )


def _workload_levels(workload) -> list:
    """The workload's barrier-separated subroutine levels."""
    levels = getattr(workload, "levels", None)
    if levels is not None:
        return list(levels())
    return [workload.subroutine]


def _charge_barrier(cluster: Cluster) -> None:
    """Advance the virtual clock by one explicit inter-level barrier."""
    cluster.engine.schedule(cluster.machine.barrier_overhead_s, lambda: None)
    cluster.run()


def _merge_level_results(results, execution_time: float, sum_fields, **extra):
    """Fold per-level results into one, summing the additive counters.

    Per-level fault counters are deltas over that level's execution, so
    summing them is exact; the last level's result supplies everything
    non-additive (variant tag, result class).
    """
    totals = {
        name: sum(getattr(result, name) for result in results)
        for name in sum_fields
    }
    return dataclasses.replace(
        results[-1], execution_time=execution_time, **totals, **extra
    )


def precompute_inspection(
    scale: str,
    n_nodes: int,
    codes: Union[list, tuple] = _VARIANT_RUNTIMES,
    seed: int = 7,
    cache: Optional[InspectionCache] = None,
    skew_factor: int = 1,
    skew_period: int = 0,
    workload: str = "t2_7",
) -> InspectionCache:
    """Fill an :class:`InspectionCache` for a sweep before it runs.

    Inspected chain metadata depends only on the workload's structure
    token, the node count, and the variant's chain height — not on
    cores/node, data mode, or the machine model. A sweep parent can
    therefore inspect once per (structure token × n_nodes × height) on
    a throwaway SYNTH cluster and ship the resulting cache to worker
    processes (it pickles cleanly), so the memoization survives process
    isolation instead of being recomputed in every worker.

    ``workload`` is a registry name or token; ``scale`` supplies its
    params when the token carries none. Multi-level workloads are
    inspected level by level. ``codes`` may mix variant names with
    non-PaRSEC runtimes (``"original"``/``"legacy"``/``"dtd"`` are
    skipped — they have no inspection phase). Returns ``cache`` (a
    fresh one when ``None``).
    """
    cache = cache if cache is not None else InspectionCache()
    variants = []
    seen_heights = set()
    for code in codes:
        name = code.lower()
        if name == "parsec":
            name = V5.name
        if name not in _VARIANT_RUNTIMES:
            continue
        variant = variant_by_name(name)
        if variant.segment_height not in seen_heights:
            seen_heights.add(variant.segment_height)
            variants.append(variant)
    if not variants:
        return cache
    config = RunConfig(
        n_nodes=n_nodes,
        cores_per_node=1,
        data_mode=DataMode.SYNTH,
        metrics=False,
        seed=seed,
        skew_factor=skew_factor,
        skew_period=skew_period,
    )
    workload_obj = _build_registered_workload(
        workload,
        _build_cluster(config),
        scale=scale,
        seed=seed,
        skew_factor=skew_factor,
        skew_period=skew_period,
    )
    for subroutine in _workload_levels(workload_obj):
        for variant in variants:
            cache.precompute(subroutine, workload_obj.cluster, variant)
    return cache


def _run_legacy(cluster, workload, levels, config: RunConfig):
    lrt = LegacyRuntime(cluster, workload.ga, config.legacy)
    if len(levels) == 1:
        return lrt.execute_subroutine(levels[0])
    return lrt.execute([list(subroutine.chains) for subroutine in levels])


def _run_dtd(cluster, levels):
    from repro.core.dtd_port import run_over_dtd

    start = cluster.engine.now
    results = []
    for index, subroutine in enumerate(levels):
        if index:
            _charge_barrier(cluster)
        results.append(run_over_dtd(cluster, subroutine))
    if len(results) == 1:
        return results[0]
    return _merge_level_results(
        results, cluster.engine.now - start, _DTD_SUM_FIELDS
    )


def _run_parsec(cluster, levels, variant: VariantSpec, config: RunConfig):
    metrics = cluster.metrics
    start = cluster.engine.now
    results = []
    for index, subroutine in enumerate(levels):
        if index:
            _charge_barrier(cluster)
        with metrics.phase("inspection"):
            metadata = inspect_subroutine(
                subroutine, cluster, variant, cache=config.inspection_cache
            )
        with metrics.phase("ptg_build"):
            ptg = build_ccsd_ptg(variant, metadata)
        prt = ParsecRuntime(
            cluster,
            policy=config.policy,
            stealing=config.stealing,
            coalescing=config.coalescing,
        )
        with metrics.phase("execution"):
            results.append(prt.execute(ptg, metadata, validate=config.validate))
    if len(results) == 1:
        result = results[0]
    else:
        per_class: dict[str, int] = {}
        for level_result in results:
            for cls, count in level_result.tasks_per_class.items():
                per_class[cls] = per_class.get(cls, 0) + count
        result = _merge_level_results(
            results,
            cluster.engine.now - start,
            _PARSEC_SUM_FIELDS,
            tasks_per_class=per_class,
        )
    result.variant = variant.name
    return result


def run(
    workload: Union[str, Workload, T27Workload] = "t2_7:small",
    runtime: str = "parsec",
    variant: Union[str, VariantSpec] = V5,
    config: Optional[RunConfig] = None,
) -> RunResult:
    """Execute one workload on one runtime; the single public entry point.

    Parameters
    ----------
    workload:
        A registry token (``"t2_7:small"``, ``"ccsd:tiny"``,
        ``"rbgs:32x32"``), for which a fresh cluster and workload are
        built from ``config`` — or a pre-built workload object
        (e.g. :class:`~repro.tce.t2_7.T27Workload`), which runs on its
        own cluster.
    runtime:
        ``"parsec"`` (uses ``variant``), ``"legacy"``/``"original"``,
        ``"dtd"``, or a variant name ``"v1"``..``"v5"`` as shorthand
        for PaRSEC with that variant.
    variant:
        The PTG variant for the PaRSEC path — a
        :class:`~repro.core.variants.VariantSpec` or its name.

    Unknown runtime or workload names raise
    :class:`~repro.util.errors.ConfigurationError` before any cluster
    is built (the CLI maps it to exit code 2).
    """
    config = config or RunConfig()
    name = runtime.lower()
    if name == "original":
        name = "legacy"
    if name in _VARIANT_RUNTIMES:
        variant = variant_by_name(name)
        name = "parsec"
    if name not in ("legacy", "dtd", "parsec"):
        raise ConfigurationError(
            f"unknown runtime {runtime!r}: expected 'parsec', 'legacy', "
            f"'dtd', or one of {_VARIANT_RUNTIMES}"
        )
    if isinstance(variant, str):
        variant = variant_by_name(variant)

    if isinstance(workload, str):
        _, scale = parse_workload_token(workload)
        workload = _build_workload(workload, config)
    else:
        scale = None
    cluster = workload.cluster
    metrics = cluster.metrics
    levels = _workload_levels(workload)

    if name == "legacy":
        with metrics.phase("execution"):
            result: RunResult = _run_legacy(cluster, workload, levels, config)
    elif name == "dtd":
        with metrics.phase("execution"):
            result = _run_dtd(cluster, levels)
    else:
        result = _run_parsec(cluster, levels, variant, config)

    output = getattr(workload, "output", None)
    if output is None:
        output = workload.i2
    if config.validate and metrics.enabled and cluster.data_mode is DataMode.REAL:
        with metrics.phase("validation"):
            checksum = float(output.flat_values().sum())
        metrics.gauge_set("run.output_checksum", checksum)

    result.output = output
    if metrics.enabled:
        from repro.analysis.run_report import build_run_report

        result.metrics = metrics.snapshot()
        result.report = build_run_report(
            result,
            cluster,
            workload=getattr(workload, "name", levels[0].name),
            scale=scale,
            seed=workload.seed,
        )
    return result
