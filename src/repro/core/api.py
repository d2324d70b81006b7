"""The unified run facade: one entry point for every runtime.

``repro.run(workload, runtime=..., variant=..., config=RunConfig(...))``
executes any registered workload over the legacy coarse-grain runtime,
any of the five PaRSEC PTG variants, or the contrasted DTD model, and
returns a :class:`~repro.obs.result.RunResult` with a uniform shape:
virtual ``execution_time`` and ``n_tasks``, plus — when the cluster's
metrics registry is enabled — a ``metrics`` snapshot and a structured
``report`` (:class:`~repro.obs.report.RunReport`). Fault and recovery
counts stay on the cluster (``cluster.faults.report``), which covers
exactly the run: a fresh cluster per token, one run per built workload.

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
    "KNOB_READERS",
    "RUNTIMES",
    "RunConfig",
    "build",
    "build_cluster",
    "for_runtime",
    "knob_table",
    "precompute_inspection",
    "ptg_pipeline",
    "refuse_unread",
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
# which runtime reads which knob
# ----------------------------------------------------------------------
#: The runtimes that read each run-side knob, as measured (one witness
#: cell per pair in ``tests/test_knob_table.py``): on any other runtime
#: a value other than the default changes neither the execution time
#: nor the metrics, so :func:`run` refuses it and :func:`for_runtime`
#: drops it. Every other field (geometry, data mode, machine, skew,
#: trace, metrics) shapes the run on every runtime. ``seed`` shapes only
#: a REAL run's input draws: a SYNTH run is the same at any seed
#: (``test_synth_reads_no_seed``), on every runtime.
KNOB_READERS: dict[str, tuple[str, ...]] = {
    "policy": ("parsec",),
    "stealing": ("parsec",),
    "gpus_per_node": ("parsec",),
    "legacy": ("legacy",),
    "coalescing": ("parsec", "legacy"),
    "remote_cache": ("legacy",),
}

#: every runtime, with the ``runtime=`` spellings that select it (a
#: variant name selects PaRSEC with that variant)
RUNTIMES: dict[str, tuple[str, ...]] = {
    "parsec": ("parsec", *PAPER_VARIANTS),
    "legacy": ("legacy", "original"),
    "dtd": ("dtd",),
}

_KNOB_DEFAULTS = {
    spec.name: spec.default
    for spec in dataclasses.fields(RunConfig)
    if spec.name in KNOB_READERS
}


def _unread(config: RunConfig, runtimes) -> list[str]:
    """The knobs ``config`` sets that none of ``runtimes`` (``run(runtime=
    ...)`` spellings) reads."""
    names = {_resolve_runtime(runtime, V5)[0] for runtime in runtimes}
    return [
        knob
        for knob, readers in KNOB_READERS.items()
        if getattr(config, knob) != _KNOB_DEFAULTS[knob] and names.isdisjoint(readers)
    ]


def for_runtime(config: RunConfig, runtime: str) -> RunConfig:
    """``config`` with every knob ``runtime`` does not read reset to its
    default: the one way for a caller that shares a config across
    runtimes (a sweep over codes) to give each one a config it accepts.
    Build a workload for ``runtime`` from this config too."""
    unread = _unread(config, (runtime,))
    if not unread:
        return config
    defaults = {knob: _KNOB_DEFAULTS[knob] for knob in unread}
    return dataclasses.replace(config, **defaults)


def refuse_unread(config: RunConfig, runtimes) -> None:
    """Raise :class:`~repro.util.errors.ConfigurationError` when
    ``config`` sets a knob that none of ``runtimes`` (``run(runtime=...)``
    spellings) reads; the message names the field and its readers."""
    unread = _unread(config, runtimes)
    if not unread:
        return
    knob = unread[0]
    read_by = " and the ".join(
        f"{reader} runtime (runtime={'|'.join(RUNTIMES[reader])})"
        for reader in KNOB_READERS[knob]
    )
    names = sorted({_resolve_runtime(runtime, V5)[0] for runtime in runtimes})
    plural = "runtimes" if len(names) > 1 else "runtime"
    raise ConfigurationError(
        f"RunConfig.{knob}={getattr(config, knob)!r} is read only by the "
        f"{read_by}; the {' and '.join(names)} {plural} would ignore it"
    )


def knob_table() -> str:
    """:data:`KNOB_READERS` as the text table ``repro info`` and the
    README print."""
    rows = [("RunConfig knob", "read by", "refused by")]
    for knob, readers in KNOB_READERS.items():
        refused = [name for name in RUNTIMES if name not in readers]
        rows.append((knob, ", ".join(readers), ", ".join(refused)))
    widths = [max(len(row[col]) for row in rows) for col in range(2)]
    return "\n".join(
        f"{knob:<{widths[0]}}  {read:<{widths[1]}}  {refused}"
        for knob, read, refused in rows
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

    Every numeric result field is an additive counter and
    ``tasks_per_class`` adds per key; the last level's result supplies
    everything else (variant tag, result class).
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
    """``runtime=``/``variant=`` spellings to (a :data:`RUNTIMES` key, spec)."""
    spelling = runtime.lower()
    for name, spellings in RUNTIMES.items():
        if spelling in spellings:
            break
    else:
        raise ConfigurationError(
            f"unknown runtime {runtime!r}: expected one of "
            f"{sum(RUNTIMES.values(), ())}"
        )
    if spelling in PAPER_VARIANTS:
        variant = spelling
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
    is built (the CLI maps it to exit code 2), and so does a knob the
    runtime does not read (:data:`KNOB_READERS`; a caller that shares
    one config across runtimes passes :func:`for_runtime`'s).
    """
    config = config or RunConfig()
    name, variant = _resolve_runtime(runtime, variant)
    refuse_unread(config, (name,))
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
