"""One simulated compute node.

A :class:`Node` bundles the per-node contended hardware: the shared
memory-bandwidth resource, the NIC, named mailboxes for the service
processes that live on the node (Global Arrays handler, PaRSEC
communication thread), and named mutexes (the WRITE_C critical-region
mutex of Section IV-A lives here).

The :meth:`execute` helper is the single place where task work is
charged and traced: the CPU part runs exclusively on the calling thread
(a plain timeout) and the memory part is pushed through the shared
bandwidth resource, so co-scheduled memory-bound tasks slow each other
down exactly as on the real machine.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.sim.engine import Engine
from repro.sim.mutex import SimMutex
from repro.sim.network import NIC
from repro.sim.queues import Store
from repro.sim.resources import BandwidthResource
from repro.sim.trace import TaskCategory, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.cost import MachineModel, OpCost

__all__ = ["Node"]


class Node:
    """Compute node: cores, shared memory bandwidth, NIC, mailboxes."""

    def __init__(
        self,
        engine: Engine,
        node_id: int,
        machine: "MachineModel",
        cores: int,
        trace: TraceRecorder,
    ) -> None:
        if cores < 1:
            raise ValueError(f"node needs >= 1 core, got {cores}")
        self.engine = engine
        self.node_id = node_id
        self.machine = machine
        self.cores = cores
        self.trace = trace
        self.membw = BandwidthResource(
            engine,
            machine.mem_bw_bytes_per_s,
            name=f"membw{node_id}",
            per_job_cap=machine.core_copy_bytes_per_s,
        )
        self.nic = NIC(engine, node_id)
        self._inboxes: dict[str, Store] = {}
        self._mutexes: dict[str, SimMutex] = {}
        self._pcie: BandwidthResource | None = None
        #: False once the node's compute has fail-stopped (see
        #: repro.sim.faults). Memory, NIC, and service processes survive.
        self.alive = True
        #: straggler episodes: (t_start, t_end, factor) CPU multipliers
        self.slow_windows: list[tuple[float, float, float]] = []

    @property
    def pcie(self) -> BandwidthResource:
        """Host<->device staging link, created on first use."""
        if self._pcie is None:
            self._pcie = BandwidthResource(
                self.engine,
                self.machine.pcie_bytes_per_s,
                name=f"pcie{self.node_id}",
            )
        return self._pcie

    # ------------------------------------------------------------------
    def inbox(self, name: str) -> Store:
        """The named mailbox, created on first use."""
        store = self._inboxes.get(name)
        if store is None:
            store = Store(self.engine, name=f"node{self.node_id}:{name}")
            self._inboxes[name] = store
        return store

    def drop_inbox(self, name: str) -> None:
        """Forget a mailbox whose owner is finished, abandoning whoever
        is parked on it. Per-instance mailboxes (``parsec.comm#<id>``)
        would otherwise keep every finished runtime reachable from the
        node through the service thread waiting there."""
        store = self._inboxes.pop(name, None)
        if store is not None:
            store.abandon_getters()

    def mutex(self, name: str) -> SimMutex:
        """The named mutex, created on first use with machine overheads."""
        mutex = self._mutexes.get(name)
        if mutex is None:
            mutex = SimMutex(
                self.engine,
                lock_overhead=self.machine.mutex_lock_s,
                unlock_overhead=self.machine.mutex_unlock_s,
                name=f"node{self.node_id}:{name}",
            )
            self._mutexes[name] = mutex
        return mutex

    # ------------------------------------------------------------------
    def cpu_scale(self) -> float:
        """Current CPU-cost multiplier (straggler windows, default 1)."""
        if not self.slow_windows:
            return 1.0
        now = self.engine.now
        factor = 1.0
        for t_start, t_end, window_factor in self.slow_windows:
            if t_start <= now < t_end:
                factor *= window_factor
        return factor

    def execute(
        self,
        thread: int,
        category: TaskCategory,
        label: str,
        cost: "OpCost",
        meta: Optional[dict] = None,
    ):
        """Generator helper: run one operation on this node and trace it.

        Charges ``cost.cpu`` as exclusive core time (scaled by any
        active straggler window) then ``cost.bytes`` through the shared
        memory bandwidth, and records the enclosing span. Use as
        ``yield from node.execute(...)``.
        """
        t_start = self.engine.now
        if cost.cpu > 0:
            yield self.engine.timeout(cost.cpu * self.cpu_scale())
        if cost.bytes > 0:
            yield self.membw.transfer(cost.bytes)
        self.trace.record(
            self.node_id, thread, category, label, t_start, self.engine.now, meta
        )

    def occupy(self, duration: float):
        """Generator helper: plain untraced core time (overheads)."""
        if duration > 0:
            yield self.engine.timeout(duration * self.cpu_scale())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.node_id}, cores={self.cores})"
