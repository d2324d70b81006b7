"""The traced path: drive the layers one call at a time, with spans.

The untraced run calls the facades (``repro.run``, ``fig9.run_point``,
``chaos.run_chaos``, ``ablations.run_comm_ablation``). The traced run
cannot see inside a facade from outside ``src/``, so it repeats what the
facade does — build, ``inspect_subroutine``, ``build_ccsd_ptg``,
``ParsecRuntime.execute`` / ``LegacyRuntime.execute*`` /
``run_over_dtd``, validation, ``build_run_report`` — with a span around
every call into a layer, and the harness then checks that both paths
simulated exactly the same virtual time.
"""

from __future__ import annotations

import dataclasses
from dataclasses import asdict
from typing import Optional

import numpy as np

from repro.analysis.run_report import build_run_report
from repro.core.dtd_port import run_over_dtd
from repro.core.inspector import InspectionCache, inspect_subroutine
from repro.core.ptg_build import build_ccsd_ptg
from repro.core.variants import variant_by_name
from repro.experiments.calibration import PAPER_MACHINE
from repro.experiments.chaos import default_plan
from repro.ga.cache import RemoteCachePolicy
from repro.ga.runtime import GlobalArrays
from repro.legacy.runtime import LegacyRuntime
from repro.parsec.runtime import ParsecRuntime
from repro.parsec.stealing import StealPolicy
from repro.sim.cluster import Cluster, ClusterConfig, DataMode
from repro.sim.cost import MachineModel
from repro.sim.network import CoalescePolicy
from repro.workloads import build_workload, parse_workload_token

from .spans import Tracer

#: additive result fields the facade sums across barrier levels
_SUMMED = ("n_tasks", "messages_remote", "bytes_remote", "deliveries_local")


def build(
    tracer: Tracer,
    token: str,
    *,
    n_nodes: int,
    cores_per_node: int,
    data_mode: DataMode,
    seed: int,
    metrics: bool = False,
    trace: bool = False,
    paper_machine: bool = True,
    coalescing: Optional[CoalescePolicy] = None,
    remote_cache: Optional[RemoteCachePolicy] = None,
):
    """``Cluster(...)`` + ``GlobalArrays`` + ``build_workload`` under one
    ``workloads.build`` span (cluster construction is a child span).

    ``paper_machine`` picks the experiments' pinned machine
    (``calibration.make_cluster``) over the ``MachineModel`` defaults the
    ``repro.run`` token path uses; today they are equal, and the facades
    differ in which one they name.
    """
    with tracer.span("workloads.build"):
        with tracer.span("sim.cluster_build"):
            cluster = Cluster(
                ClusterConfig(
                    n_nodes=n_nodes,
                    cores_per_node=cores_per_node,
                    machine=PAPER_MACHINE if paper_machine else MachineModel(),
                    data_mode=data_mode,
                    trace_enabled=trace,
                    metrics_enabled=metrics,
                )
            )
        ga = None
        if paper_machine or coalescing is not None or remote_cache is not None:
            ga = GlobalArrays(cluster, coalescing=coalescing, remote_cache=remote_cache)
        workload = build_workload(token, cluster, ga, seed=seed)
    return workload


def _barrier(cluster: Cluster) -> None:
    cluster.engine.schedule(cluster.machine.barrier_overhead_s, lambda: None)
    cluster.run()


def execute(
    tracer: Tracer,
    workload,
    runtime: str,
    *,
    cache: Optional[InspectionCache] = None,
    stealing: Optional[StealPolicy] = None,
):
    """Run every barrier level of ``workload`` on ``runtime``; returns the
    merged result, as ``repro.run`` does before validation/reporting."""
    cluster = workload.cluster
    metrics = cluster.metrics
    levels = list(workload.levels())
    n_gemms = sum(level.n_gemms for level in levels)
    if runtime in ("legacy", "original"):
        with tracer.span("legacy.execute") as span, metrics.phase("execution"):
            lrt = LegacyRuntime(cluster, workload.ga, None)
            if len(levels) == 1:
                result = lrt.execute_subroutine(levels[0])
            else:
                result = lrt.execute([list(level.chains) for level in levels])
            span["counts"] = {"n_gemms": n_gemms, "n_tasks": result.n_tasks}
        return result
    start = cluster.engine.now
    results = []
    if runtime == "dtd":
        with metrics.phase("execution"):
            for index, level in enumerate(levels):
                if index:
                    _barrier(cluster)
                with tracer.span("parsec.dtd_execute") as span:
                    result = run_over_dtd(cluster, level)
                    span["counts"] = {"n_tasks": result.n_tasks}
                results.append(result)
        summed = _SUMMED[:3] + ("n_edges", "insertion_time")
    else:
        variant = variant_by_name(runtime)
        cached = cache is not None
        for index, level in enumerate(levels):
            if index:
                _barrier(cluster)
            name = "core.inspect_cached" if cached else "core.inspect_cold"
            with tracer.span(name), metrics.phase("inspection"):
                md = inspect_subroutine(level, cluster, variant, cache=cache)
            with tracer.span("core.ptg_build"), metrics.phase("ptg_build"):
                ptg = build_ccsd_ptg(variant, md)
            prt = ParsecRuntime(cluster, stealing=stealing)
            with tracer.span("parsec.execute") as span, metrics.phase("execution"):
                result = prt.execute(ptg, md, validate=True)
                span["counts"] = {
                    "n_tasks": result.n_tasks,
                    "messages_remote": result.messages_remote,
                    "steal_requests": result.steal_requests,
                    "steals_granted": result.steals_granted,
                }
            results.append(result)
        summed = _SUMMED
    if len(results) == 1:
        result = results[0]
    else:
        totals = {name: sum(getattr(r, name) for r in results) for name in summed}
        result = dataclasses.replace(
            results[-1], execution_time=cluster.engine.now - start, **totals
        )
    if runtime != "dtd":
        result.variant = runtime  # the facade tags PaRSEC results only
    return result


def finish(tracer: Tracer, workload, result, token: str):
    """Validation checksum + metrics snapshot + ``build_run_report``: the
    tail of ``repro.run`` when the registry is on."""
    cluster = workload.cluster
    metrics = cluster.metrics
    result.output = workload.output
    if not metrics.enabled:
        return result
    if cluster.data_mode is DataMode.REAL:
        with tracer.span("tce.validation"), metrics.phase("validation"):
            checksum = float(workload.output.flat_values().sum())
        metrics.gauge_set("run.output_checksum", checksum)
    with tracer.span("analysis.report_build"):
        result.metrics = metrics.snapshot()
        result.report = build_run_report(
            result,
            cluster,
            workload=workload.name,
            scale=parse_workload_token(token)[1],
            seed=workload.seed,
        )
    return result


def run_token(
    tracer: Tracer,
    token: str,
    runtime: str,
    *,
    n_nodes: int,
    cores_per_node: int,
    data_mode: DataMode,
    seed: int,
    metrics: bool = True,
    trace: bool = False,
):
    """``repro.run(token, runtime=..., config=RunConfig(...))``, stepwise."""
    workload = build(
        tracer,
        token,
        n_nodes=n_nodes,
        cores_per_node=cores_per_node,
        data_mode=data_mode,
        seed=seed,
        metrics=metrics,
        trace=trace,
        paper_machine=False,
    )
    result = execute(tracer, workload, runtime)
    return finish(tracer, workload, result, token)


def chaos_cell(
    tracer: Tracer,
    name: str,
    token: str,
    *,
    n_nodes: int,
    cores_per_node: int,
    seed: int,
    fault_seed: int,
    cache: Optional[InspectionCache],
    stealing: bool,
) -> dict:
    """One chaos triple (clean + two runs under the same fault plan),
    as ``experiments.chaos`` runs it; returns the outcome as a dict with
    the same keys as ``ChaosOutcome`` plus the steal counters."""
    steals = {"steal_requests": 0, "steals_granted": 0}

    def one(plan, span_name):
        with tracer.span(span_name):
            workload = build(
                tracer,
                token,
                n_nodes=n_nodes,
                cores_per_node=cores_per_node,
                data_mode=DataMode.REAL,
                seed=seed,
            )
            workload.output.array.enable_ordered_accumulation()
            cluster = workload.cluster
            if plan is not None:
                cluster.install_faults(plan)
            policy = StealPolicy() if stealing and name != "original" else None
            result = execute(
                tracer,
                workload,
                name,
                cache=None if name == "original" else cache,
                stealing=policy,
            )
            for key in steals:
                steals[key] += getattr(result, key, 0)
            counters = asdict(cluster.faults.report) if cluster.faults else {}
            return workload.output.flat_values(), cluster.engine.now, counters

    reference, horizon, _ = one(None, "experiments.chaos_clean")
    plan = default_plan(fault_seed, horizon, n_nodes)
    values_a, end_a, counters_a = one(plan, "experiments.chaos_faulted")
    values_b, end_b, counters_b = one(plan, "experiments.chaos_faulted")
    recovery = (
        "task_retries",
        "retransmits",
        "tasks_recomputed",
        "tasks_reassigned",
        "tickets_reissued",
        "chains_recovered",
        "nodes_crashed",
    )
    return {
        "name": name,
        "bitwise_match": bool(
            np.array_equal(values_a, reference) and np.array_equal(values_b, reference)
        ),
        "deterministic": bool(
            end_a == end_b
            and counters_a == counters_b
            and np.array_equal(values_a, values_b)
        ),
        "faults_recovered": any(counters_a.get(k, 0) > 0 for k in recovery),
        "end_time_clean": horizon,
        "end_time_faulted": end_a,
        "counters": counters_a,
        **steals,
    }


def comm_cell(
    tracer: Tracer,
    token: str,
    *,
    n_nodes: int,
    cores_per_node: int,
    seed: int,
    coalescing: bool,
    cache: bool,
):
    """One cell of the coalescing x remote-cache matrix (legacy runtime,
    REAL, ordered accumulation), as ``run_comm_ablation`` runs it;
    returns ``(cell dict, gathered output)``."""
    with tracer.span("experiments.comm_cell"):
        workload = build(
            tracer,
            token,
            n_nodes=n_nodes,
            cores_per_node=cores_per_node,
            data_mode=DataMode.REAL,
            seed=seed,
            coalescing=CoalescePolicy() if coalescing else None,
            remote_cache=RemoteCachePolicy() if cache else None,
        )
        workload.output.array.enable_ordered_accumulation()
        result = execute(tracer, workload, "legacy")
        output = workload.output.array.gather()
    ga = workload.ga
    cell = {
        "execution_time": result.execution_time,
        "wire_messages": workload.cluster.network.remote_messages,
        "bytes_fetched": ga.bytes_fetched,
        "cache_hits": ga.cache_hits,
        "cache_misses": ga.cache_misses,
        "coalesced_batches": ga.coalesced_batches,
        "messages_saved": ga.messages_saved,
    }
    return cell, output
