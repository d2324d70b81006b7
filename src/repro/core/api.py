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
from repro.core.variants import PAPER_VARIANTS, V5, VariantSpec, variant_by_name
from repro.ga.cache import RemoteCachePolicy
from repro.ga.runtime import GlobalArrays
from repro.legacy.runtime import LegacyConfig, LegacyRuntime
from repro.obs.result import RunResult
from repro.parsec.runtime import ParsecRuntime
from repro.parsec.scheduler import SchedulerPolicy
from repro.parsec.stealing import StealPolicy
from repro.sim.cluster import Cluster, ClusterConfig, DataMode
from repro.sim.cost import MachineModel
from repro.sim.network import CoalescePolicy
from repro.util import collector
from repro.util.errors import ConfigurationError
from repro.workloads import build_workload, parse_workload_token
from repro.workloads.base import BoundWorkload

__all__ = [
    "RunConfig",
    "StealPolicy",
    "build",
    "build_cluster",
    "precompute_inspection",
    "ptg_pipeline",
    "run",
]

@dataclass(frozen=True)
class RunConfig:
    """The single description of a run: machine, workload knobs, runtime knobs.

    :func:`build` reads the cluster fields (``n_nodes`` .. ``gpus_per_node``),
    the workload fields (``seed``, ``skew_*``) and the GA knobs
    (``coalescing``, ``remote_cache``); :func:`run` reads the rest. A
    pre-built workload object brings its own cluster and
    ``GlobalArrays``: its cluster/workload fields are not consulted, and
    GA knobs that disagree with how it was built are rejected.
    """

    n_nodes: int = 8
    cores_per_node: int = 4
    data_mode: DataMode = DataMode.REAL
    trace: bool = False
    metrics: bool = True
    #: None = the ``MachineModel`` defaults, which are the calibration
    #: (``experiments.calibration.PAPER_MACHINE`` pins the same values).
    machine: Optional[MachineModel] = None
    gpus_per_node: int = 0
    seed: int = 7
    #: PaRSEC node scheduler discipline (None = priority, the default);
    #: a policy's name (``"fifo"``) is taken too.
    policy: Optional[SchedulerPolicy] = None
    #: Legacy runtime knobs (NXTVAL vs static assignment).
    legacy: Optional[LegacyConfig] = None
    #: PaRSEC: inter-node work stealing over the static chain placement
    #: (None = disabled, the paper's static distribution).
    stealing: Optional[StealPolicy] = None
    #: Workload imbalance knob (see :class:`~repro.tce.terms.TermBuilder`):
    #: chains with ``chain_id % skew_period == 0`` repeat their GEMM list
    #: ``skew_factor`` times.
    skew_factor: int = 1
    skew_period: int = 0
    #: Comm optimization: per-destination message coalescing on the NIC
    #: (GA fetch requests and PaRSEC dataflow sends). None = off — the
    #: wire behavior the golden digests pin.
    coalescing: Optional[CoalescePolicy] = None
    #: Comm optimization: bounded per-node software cache of fetched
    #: remote GA blocks, invalidated by write epochs. None = off.
    remote_cache: Optional[RemoteCachePolicy] = None
    #: The memo of the inspector half of a run (None = build everything
    #: fresh and keep nothing): the workload's chain IR, its inputs'
    #: seeded draws (adopted copy-on-write), the inspected chains and the
    #: PTG's validated task table, each built once per what it depends on
    #: (see :class:`~repro.core.inspector.InspectionCache`). The phase
    #: timers still run; simulated behaviour is identical either way.
    inspection_cache: Optional[InspectionCache] = field(
        default=None, repr=False, compare=False
    )


# ----------------------------------------------------------------------
# the one build path: RunConfig -> cluster -> GlobalArrays -> workload
# ----------------------------------------------------------------------
def build_cluster(config: RunConfig) -> Cluster:
    """The simulated allocation ``config`` describes."""
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


@collector.paused()
def build(
    token: str,
    config: RunConfig,
    scale: Optional[str] = None,
    cluster: Optional[Cluster] = None,
) -> BoundWorkload:
    """Cluster, ``GlobalArrays`` and the workload ``token`` names.

    The workload's structure (``config.inspection_cache``'s when given)
    is bound to the cluster: its arrays are created and its inputs
    adopt their seeded draws. ``scale`` supplies the token's params when
    it carries none; ``cluster`` reuses an existing allocation instead
    of building ``config``'s. The GA handlers are always spawned before
    the workload allocates its tensors, so every caller draws the same
    engine sequence numbers.
    """
    if cluster is None:
        cluster = build_cluster(config)
    ga = GlobalArrays(
        cluster, coalescing=config.coalescing, remote_cache=config.remote_cache
    )
    return build_workload(
        token,
        cluster,
        ga,
        scale=scale,
        seed=config.seed,
        skew_factor=config.skew_factor,
        skew_period=config.skew_period,
        cache=config.inspection_cache,
    )


def precompute_inspection(
    scale: str,
    n_nodes: int,
    codes: Union[list, tuple] = tuple(PAPER_VARIANTS),
    seed: int = 7,
    skew_factor: int = 1,
    skew_period: int = 0,
    workload: str = "t2_7",
) -> InspectionCache:
    """An :class:`InspectionCache` filled ahead of the runs that use it.

    It holds the workload's structure and, per chain height, its
    inspected chains: both depend only on the structure, the node count
    and the height, so one SYNTH build per call covers every cores/node,
    data mode and machine model. The experiments no longer call this —
    their cells share the process memo — but a caller that wants the
    build and the chain walk outside what it times passes the result as
    ``RunConfig.inspection_cache``, which always wins. ``workload`` is
    a registry name or token (``scale`` supplies its params when the
    token has none; multi-level workloads are inspected level by
    level); ``codes`` may mix variant names with runtimes that have no
    inspection phase (``"original"``/``"legacy"``/``"dtd"``: skipped).
    """
    cache = InspectionCache()
    by_height: dict = {}
    for code in codes:
        name, variant = _resolve_runtime(code, V5)
        if name == "parsec":
            by_height.setdefault(variant.segment_height, variant)
    if not by_height:
        return cache
    config = RunConfig(
        n_nodes=n_nodes,
        cores_per_node=1,
        data_mode=DataMode.SYNTH,
        metrics=False,
        seed=seed,
        skew_factor=skew_factor,
        skew_period=skew_period,
        inspection_cache=cache,
    )
    workload_obj = build(workload, config, scale=scale)
    for subroutine in workload_obj.levels():
        for variant in by_height.values():
            cache.chains_for(subroutine, workload_obj.cluster, variant)
    return cache


# ----------------------------------------------------------------------
# the one PTG pipeline (Section III-B): inspect -> PTG -> runtime
# ----------------------------------------------------------------------
def ptg_pipeline(cluster: Cluster, subroutine, variant: VariantSpec, config: RunConfig):
    """Inspect ``subroutine``, build the variant's PTG and bind a runtime.

    Returns ``(runtime, ptg, metadata)``; the caller decides how control
    comes back: ``runtime.execute(ptg, metadata)`` runs to completion,
    ``runtime.launch(ptg, metadata)`` embeds the section in a larger
    simulated program (:class:`~repro.core.integration.NwchemDriver`).
    """
    metrics = cluster.metrics
    with metrics.phase("inspection"):
        metadata = inspect_subroutine(
            subroutine, cluster, variant, cache=config.inspection_cache
        )
    with metrics.phase("ptg_build"):
        ptg = build_ccsd_ptg(variant, metadata)
    runtime = ParsecRuntime(
        cluster,
        policy=config.policy,
        stealing=config.stealing,
        coalescing=config.coalescing,
    )
    return runtime, ptg, metadata


def _run_levels(cluster: Cluster, levels, run_level):
    """Run the levels in order, a barrier charge between consecutive
    ones, and fold the per-level results into one.

    Every numeric result field is an additive counter (per-level fault
    counters are deltas over that level's execution, so summing them is
    exact) and ``tasks_per_class`` adds per key; the last level's result
    supplies everything else (variant tag, result class).
    """
    start = cluster.engine.now
    results = []
    for index, subroutine in enumerate(levels):
        if index:  # one explicit inter-level barrier on the virtual clock
            cluster.engine.schedule(cluster.machine.barrier_overhead_s, lambda: None)
            cluster.run()
        results.append(run_level(subroutine))
    if len(results) == 1:
        return results[0]
    merged: dict = {}
    for spec in dataclasses.fields(results[-1]):
        values = [getattr(result, spec.name) for result in results]
        if isinstance(values[-1], (int, float)):
            merged[spec.name] = sum(values)
        elif isinstance(values[-1], dict):
            merged[spec.name] = total = {}
            for per_level in values:
                for key, count in per_level.items():
                    total[key] = total.get(key, 0) + count
    merged["execution_time"] = cluster.engine.now - start
    return dataclasses.replace(results[-1], **merged)


def _resolve_runtime(runtime: str, variant) -> tuple[str, VariantSpec]:
    """``runtime=``/``variant=`` spellings to ("legacy"|"dtd"|"parsec", spec)."""
    name = runtime.lower()
    if name == "original":
        name = "legacy"
    if name in PAPER_VARIANTS:
        variant = variant_by_name(name)
        name = "parsec"
    if name not in ("legacy", "dtd", "parsec"):
        raise ConfigurationError(
            f"unknown runtime {runtime!r}: expected 'parsec', 'legacy', "
            f"'dtd', or one of {tuple(PAPER_VARIANTS)}"
        )
    if isinstance(variant, str):
        variant = variant_by_name(variant)
    return name, variant


@collector.paused()
def run(
    workload: Union[str, BoundWorkload] = "t2_7:small",
    runtime: str = "parsec",
    variant: Union[str, VariantSpec] = V5,
    config: Optional[RunConfig] = None,
) -> RunResult:
    """Execute one workload on one runtime; the single public entry point.

    Parameters
    ----------
    workload:
        A registry token (``"t2_7:small"``, ``"ccsd:tiny"``,
        ``"rbgs:32x32"``), for which :func:`build` makes a fresh cluster
        and workload from ``config`` — or a workload object already
        built (by :func:`build`, when something must be set up between
        building and running: a fault plan, ordered accumulation), which
        runs on its own cluster.
    runtime:
        ``"parsec"`` (uses ``variant``), ``"legacy"``/``"original"``,
        ``"dtd"``, or a variant name ``"v1"``..``"v5"`` as shorthand
        for PaRSEC with that variant.
    variant:
        The PTG variant for the PaRSEC path — a
        :class:`~repro.core.variants.VariantSpec` or its name.

    Unknown runtime or workload names raise
    :class:`~repro.util.errors.ConfigurationError` before any cluster
    is built (the CLI maps it to exit code 2), and so does a
    ``RunConfig.policy`` on a runtime that does not read it.
    """
    config = config or RunConfig()
    name, variant = _resolve_runtime(runtime, variant)
    if config.policy is not None and name != "parsec":
        raise ConfigurationError(
            f"RunConfig.policy={config.policy!r} is read only by the PaRSEC "
            f"PTG runtime ('parsec', {', '.join(PAPER_VARIANTS)}); the {name} "
            "runtime would ignore it"
        )
    if isinstance(workload, str):
        scale = parse_workload_token(workload)[1]
        workload = build(workload, config)
    else:
        scale = None
        for knob in ("coalescing", "remote_cache"):
            if getattr(config, knob) != getattr(workload.ga, knob):
                raise ConfigurationError(
                    f"RunConfig.{knob}={getattr(config, knob)!r} but the "
                    f"workload's GlobalArrays was built with "
                    f"{getattr(workload.ga, knob)!r}: build the workload "
                    "from the same config (repro.core.api.build)"
                )
    cluster = workload.cluster
    metrics = cluster.metrics
    levels = workload.levels()

    if name == "legacy":
        with metrics.phase("execution"):
            result: RunResult = LegacyRuntime(
                cluster, workload.ga, config.legacy
            ).execute([list(subroutine.chains) for subroutine in levels])
    elif name == "dtd":
        from repro.core.dtd_port import run_over_dtd

        with metrics.phase("execution"):
            result = _run_levels(
                cluster, levels, lambda subroutine: run_over_dtd(cluster, subroutine)
            )
    else:

        def run_level(subroutine):
            prt, ptg, metadata = ptg_pipeline(cluster, subroutine, variant, config)
            with metrics.phase("execution"):
                return prt.execute(ptg, metadata)

        result = _run_levels(cluster, levels, run_level)
        result.variant = variant.name

    output = workload.output
    if metrics.enabled and cluster.data_mode is DataMode.REAL:
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
            workload=workload.name,
            scale=scale,
            seed=workload.seed,
        )
    return result
