"""Frozen experiment configuration: machine constants and scales.

The evaluation machine is a simulated stand-in for the paper's 32-node
Cascade partition. The :class:`~repro.sim.cost.MachineModel` defaults
*are* the calibration — this module pins them (so later changes to
defaults cannot silently change experiment results) and documents how
they were chosen.

Calibration provenance (see also EXPERIMENTS.md):

- ``gemm_gflops = 20``: near-peak per-core DGEMM on a 2.6 GHz Xeon
  E5-2670 for the tile sizes this workload produces.
- ``ga_service_bytes_per_s = 0.8e9``: effective one-sided GA get/acc
  serving rate at the owner node. Chosen so the original code's
  GET_HASH_BLOCK spans are comparable to its GEMM spans (the paper's
  Figure 13) and its scaling plateaus around 7 cores/node (Figure 9).
- ``ga_local_bytes_per_s = 1.5e9``: local GA get rate paid by PaRSEC
  READ tasks on the owner node.
- ``nic_bw_bytes_per_s = 2e9``, ``comm_pack_bytes_per_s = 2.2e9``:
  effective large-message transport and per-node communication-thread
  handling; together they bound PaRSEC's per-node message throughput.
- ``mem_bw / core_copy``: shared node memory bandwidth with a per-core
  copy cap (one thread cannot drive the whole controller).

Within wide ranges of these constants the *qualitative* Figure 9 shape
is stable; the ablation benchmarks vary several of them explicitly.
"""

from __future__ import annotations

import os

from repro.core import api
from repro.core.inspector import PROCESS_MEMO, InspectionCache
from repro.parsec.stealing import StealPolicy
from repro.sim.cluster import Cluster, DataMode
from repro.sim.cost import MachineModel
from repro.workloads.base import BoundWorkload

__all__ = [
    "PAPER_MACHINE",
    "PAPER_NODES",
    "CORE_COUNTS",
    "bench_scale",
    "cell_config",
    "make_cluster",
    "make_workload",
]

#: The calibrated machine (the MachineModel defaults, pinned).
PAPER_MACHINE = MachineModel(
    gemm_gflops=20.0,
    sort_elems_per_s=6.0e8,
    axpy_elems_per_s=1.2e9,
    mem_bw_bytes_per_s=5.0e10,
    core_copy_bytes_per_s=4.0e9,
    cache_reuse_discount=0.55,
    nic_bw_bytes_per_s=2.0e9,
    net_latency_s=2.5e-6,
    ga_request_overhead_s=4.0e-6,
    ga_service_bytes_per_s=8.0e8,
    ga_local_bytes_per_s=1.5e9,
    nxtval_service_s=1.5e-6,
    nxtval_issue_s=2.0e-6,
    mutex_lock_s=4.0e-7,
    mutex_unlock_s=3.0e-7,
    task_overhead_s=2.0e-6,
    comm_thread_overhead_s=3.0e-6,
    comm_pack_bytes_per_s=2.2e9,
    legacy_call_overhead_s=3.0e-6,
    barrier_overhead_s=2.0e-5,
)

#: The paper's allocation: "a 32 node partition of the Cascade cluster".
PAPER_NODES = 32

#: Figure 9's x-axis (the paper plots PaRSEC boxes at 1/3/7/15 and the
#: original line at every count; we run both at these five).
CORE_COUNTS = (1, 3, 7, 11, 15)


def bench_scale(default: str = "paper") -> str:
    """The workload scale benchmarks run at (env ``REPRO_SCALE``)."""
    return os.environ.get("REPRO_SCALE", default)


def cell_config(
    cores_per_node: int,
    n_nodes: int = PAPER_NODES,
    data_mode: DataMode = DataMode.SYNTH,
    stealing: bool = False,
    metrics: bool = False,
    machine: MachineModel | None = None,
    inspection_cache: InspectionCache | None = None,
    **fields,
) -> api.RunConfig:
    """The :class:`~repro.core.api.RunConfig` of one experiment cell.

    The experiments' defaults differ from the facade's: the pinned
    :data:`PAPER_MACHINE`, SYNTH data and metrics *off* — the big sweeps
    only need end-to-end times, and the disabled registry is a no-op on
    every hot path — and the inspection is memoised in the process that
    runs the cell (:data:`~repro.core.inspector.PROCESS_MEMO`) unless the
    caller brings its own ``inspection_cache``. ``stealing`` is the
    sweeps' picklable on/off spelling of the default
    :class:`~repro.parsec.stealing.StealPolicy`; ``fields`` are any
    other ``RunConfig`` fields.
    """
    if inspection_cache is None:  # not `or`: an empty cache is falsy
        inspection_cache = PROCESS_MEMO
    return api.RunConfig(
        n_nodes=n_nodes,
        cores_per_node=cores_per_node,
        data_mode=data_mode,
        metrics=metrics,
        machine=machine or PAPER_MACHINE,
        stealing=StealPolicy() if stealing else None,
        inspection_cache=inspection_cache,
        **fields,
    )


def make_cluster(
    cores_per_node: int,
    n_nodes: int = PAPER_NODES,
    data_mode: DataMode = DataMode.SYNTH,
    trace_enabled: bool = False,
    machine: MachineModel | None = None,
    metrics_enabled: bool = False,
) -> Cluster:
    """A fresh simulated allocation with the calibrated machine."""
    return api.build_cluster(
        cell_config(
            cores_per_node,
            n_nodes,
            data_mode,
            trace=trace_enabled,
            machine=machine,
            metrics=metrics_enabled,
        )
    )


def make_workload(
    cluster: Cluster,
    scale: str = "paper",
    seed: int = 7,
    skew_factor: int = 1,
    skew_period: int = 0,
    workload: str = "t2_7",
) -> BoundWorkload:
    """A registered workload at a named scale on an existing cluster.

    ``workload`` is a registry name or full token; a ``name:params``
    token wins over ``scale`` (the experiments' ``--workload rbgs:8x8
    --scale paper`` composition resolves to the explicit grid). The
    default stays the paper's t2_7 sub-kernel.
    """
    return api.build(
        workload,
        api.RunConfig(seed=seed, skew_factor=skew_factor, skew_period=skew_period),
        scale=scale,
        cluster=cluster,
    )
