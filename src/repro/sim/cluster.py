"""Cluster assembly: the simulated stand-in for the Cascade partition.

:class:`ClusterConfig` captures everything a run needs — node count,
cores per node, the machine constants, whether real NumPy data flows
through the system (``DataMode.REAL``) or only shapes and costs
(``DataMode.SYNTH``), and whether tracing is on. :class:`Cluster` wires
up the engine, trace recorder, network, and nodes.

The paper's experiments use 32 nodes with 1..15 compute cores per node;
PaRSEC additionally runs its communication thread "on a dedicated core",
which is how the runtimes here model it too (the comm thread does not
occupy one of ``cores_per_node``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional

from repro.obs.registry import MetricsRegistry
from repro.sim.cost import MachineModel
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.trace import TraceRecorder
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ga.runtime import GlobalArrays
    from repro.sim.faults import FaultInjector

__all__ = ["DataMode", "ClusterConfig", "Cluster"]


class DataMode(str, Enum):
    """Whether task bodies move real NumPy data or only virtual costs."""

    REAL = "real"    # numerics verified end to end (tests, equivalence bench)
    SYNTH = "synth"  # shape/cost only (large performance sweeps)


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of one simulated machine allocation."""

    n_nodes: int = 32
    cores_per_node: int = 7
    machine: MachineModel = field(default_factory=MachineModel)
    data_mode: DataMode = DataMode.REAL
    trace_enabled: bool = True
    #: whether the cluster's MetricsRegistry records anything; off for
    #: the big performance sweeps (emitting is pure bookkeeping, so
    #: virtual timings are bitwise identical either way)
    metrics_enabled: bool = True
    #: accelerators per node; device-capable tasks (GEMMs) are
    #: dispatched to GPU workers when > 0
    gpus_per_node: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.cores_per_node < 1:
            raise ConfigurationError(
                f"cores_per_node must be >= 1, got {self.cores_per_node}"
            )
        if self.gpus_per_node < 0:
            raise ConfigurationError(
                f"gpus_per_node must be >= 0, got {self.gpus_per_node}"
            )


class Cluster:
    """A live simulated machine: engine + trace + network + nodes."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        #: True when actual NumPy data flows through the system
        self.real = config.data_mode is DataMode.REAL
        self.engine = Engine()
        self.trace = TraceRecorder(enabled=config.trace_enabled)
        self.metrics = MetricsRegistry(
            enabled=config.metrics_enabled, clock=lambda: self.engine.now
        )
        self.network = Network(self.engine, config.machine, metrics=self.metrics)
        self.nodes: list[Node] = []
        #: the FaultInjector, once install_faults() has been called
        self.faults: Optional["FaultInjector"] = None
        #: the GlobalArrays runtime, once one is created on this cluster:
        #: the inspector resolves a subroutine's tensor names through it
        self.ga: Optional["GlobalArrays"] = None
        for node_id in range(config.n_nodes):
            node = Node(
                self.engine, node_id, config.machine, config.cores_per_node, self.trace
            )
            self.network.register(node)
            self.nodes.append(node)

    def install_faults(self, plan):
        """Arm a :class:`~repro.sim.faults.FaultPlan` on this cluster.

        Returns the :class:`~repro.sim.faults.FaultInjector`, whose
        ``report`` accumulates fault and recovery counters. Must be
        called before the runtimes that should observe the faults are
        launched, and at most once per cluster.
        """
        from repro.sim.faults import FaultInjector

        if self.faults is not None:
            raise ConfigurationError("install_faults() called twice on one cluster")
        injector = FaultInjector(self, plan)
        injector.install()
        self.faults = injector
        self.network.faults = injector
        self.metrics.collect(injector.report, {"nxtval.reissued": "tickets_reissued"})
        return injector

    @property
    def machine(self) -> MachineModel:
        return self.config.machine

    @property
    def n_nodes(self) -> int:
        return self.config.n_nodes

    @property
    def cores_per_node(self) -> int:
        return self.config.cores_per_node

    @property
    def data_mode(self) -> DataMode:
        return self.config.data_mode

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.engine.now

    def run(self, until: float | None = None) -> float:
        """Drain the engine's event sources; returns the final virtual time."""
        return self.engine.run(until=until)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(nodes={self.n_nodes}, cores/node={self.cores_per_node}, "
            f"mode={self.data_mode.value})"
        )
