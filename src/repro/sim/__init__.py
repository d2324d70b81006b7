"""Discrete-event simulation substrate.

This package is the stand-in for the paper's physical testbed (a 32-node
partition of the PNNL Cascade cluster). It provides:

- :mod:`repro.sim.engine` — the event kernel: a virtual clock, the
  immediate lane, generator-based processes (simulated threads) and the
  shared waiter queue.
- :mod:`repro.sim.timeline` — the one timed event store and its
  :class:`Timer`.
- :mod:`repro.sim.resources` — FIFO resources and a processor-sharing
  bandwidth resource (used for per-node memory bandwidth).
- :mod:`repro.sim.queues` — FIFO and priority mailboxes/ready-queues.
- :mod:`repro.sim.mutex` — a pthread-mutex model with lock/unlock cost.
- :mod:`repro.sim.network` — NICs and message transfer with congestion.
- :mod:`repro.sim.node` / :mod:`repro.sim.cluster` — the machine model.
- :mod:`repro.sim.cost` — calibrated operation cost models.
- :mod:`repro.sim.trace` — execution tracing (the PaRSEC instrumentation
  stand-in used to reproduce Figures 10-13).
- :mod:`repro.sim.faults` — seed-driven fault injection (task failures,
  message drop/delay/duplication, stragglers, node crashes).

Everything is deterministic: identical inputs produce identical event
orderings and identical virtual timestamps — including injected faults,
which are pure functions of a master seed and stable decision keys.
"""

from repro.sim.engine import Engine, Process, SimEvent, WaitQueue, all_of
from repro.sim.timeline import Timer
from repro.sim.resources import Resource, BandwidthResource
from repro.sim.queues import Store, RankStore
from repro.sim.mutex import SimMutex
from repro.sim.network import Network, Message, NIC
from repro.sim.cost import MachineModel
from repro.sim.node import Node
from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.trace import TraceRecorder, TraceEvent, TaskCategory
from repro.sim.faults import (
    FaultInjector,
    FaultPlan,
    FaultReport,
    NodeCrash,
    Straggler,
)

__all__ = [
    "Engine",
    "Process",
    "SimEvent",
    "Timer",
    "WaitQueue",
    "all_of",
    "Resource",
    "BandwidthResource",
    "Store",
    "RankStore",
    "SimMutex",
    "Network",
    "Message",
    "NIC",
    "MachineModel",
    "Node",
    "Cluster",
    "ClusterConfig",
    "TraceRecorder",
    "TraceEvent",
    "TaskCategory",
    "FaultInjector",
    "FaultPlan",
    "FaultReport",
    "NodeCrash",
    "Straggler",
]
