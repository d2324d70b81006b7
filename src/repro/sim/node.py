"""One simulated compute node.

A :class:`Node` bundles the per-node contended hardware: the shared
memory-bandwidth resource, the NIC, named mailboxes served by the
services that live on the node (GA handler, NXTVAL, PaRSEC comm
thread), and named mutexes (the WRITE_C critical-region mutex of
Section IV-A lives here).

:meth:`Node.charge` is the single place where task work is charged:
the CPU part runs exclusively on the calling thread (a plain timeout)
and the memory part is pushed through the shared bandwidth resource, so
co-scheduled memory-bound tasks slow each other down exactly as on the
real machine. A charge is one waitable, so a body ``yield``-s it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, TYPE_CHECKING

from repro.sim.engine import Engine
from repro.sim.mutex import SimMutex
from repro.sim.network import NIC
from repro.sim.resources import BandwidthResource
from repro.sim.trace import TraceRecorder
from repro.util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.cost import MachineModel, OpCost

__all__ = ["Node", "FifoServer", "TwoPhaseCharge"]


class TwoPhaseCharge:
    """A charge with CPU time and bytes, as one waitable: the CPU phase
    is an armed pooled timer, and when it fires the bytes go through the
    node's memory bandwidth, whose completion resumes the waiter.

    Between the phases — where the generator helper this replaced
    resumed — the waiting process's abort rule is consulted
    (:meth:`~repro.sim.engine.Process._checked`): a body killed there
    never issues its transfer. Only a process may wait on it.
    """

    __slots__ = ("_timer", "_membw", "_bytes", "_step")

    def __init__(self, timer, membw, nbytes: float) -> None:
        self._timer = timer
        self._membw = membw
        self._bytes = nbytes

    def _wait(self, callback: Callable) -> None:
        self._step = callback
        self._timer._wait(self)  # the CPU phase ends in __call__

    def __call__(self, _arg: Any) -> None:
        step = self._step
        process = step.__self__
        if process.abort is not None:
            killed = process._checked(None)
            if killed is not None:
                step(killed)
                return
        self._membw.transfer(self._bytes)._wait(step)


class FifoServer:
    """A node's mailbox and its one FIFO server, as a callback chain
    (DESIGN.md §6). ``service(item)`` names an item's charge as
    ``(seconds, bytes)``: the server waits out the seconds, then moves
    the bytes through the node's memory bandwidth (a zero charge is
    skipped), then calls ``handle(item)``, which returns True to serve
    the item again (one stage of a multi-stage item)."""

    def __init__(self, node: "Node", service, handle) -> None:
        self.engine = node.engine
        self._membw = node.membw
        self._service: Callable[[Any], tuple[float, float]] = service
        self._handle: Callable[[Any], Any] = handle
        self._items: deque = deque()
        self._busy = False
        #: the item in service and the bytes its service has yet to move
        self._item: Any = None
        self._bytes = 0.0

    def __len__(self) -> int:
        """Items held: queued, plus the one in service."""
        return len(self._items) + self._busy

    def put(self, item: Any) -> None:
        """Deposit ``item``; an idle server starts it after one lane hop."""
        if self._busy:
            self._items.append(item)
        else:
            self._busy = True
            self.engine.call_soon(self._serve, item)

    def _serve(self, item: Any) -> None:
        # a loop, not a recursion: items that cost nothing run back to back
        while self._busy:
            self._item = item
            seconds, self._bytes = self._service(item)
            if seconds > 0:
                self.engine.timeout(seconds)._wait(self._charged)
                return
            if self._bytes > 0:
                self._membw.transfer(self._bytes)._wait(self._done)
                return
            item = self._next(item)

    def _charged(self, _arg: Any) -> None:
        if self._bytes > 0:
            self._membw.transfer(self._bytes)._wait(self._done)
        else:
            self._done(None)

    def _done(self, _arg: Any) -> None:
        self._serve(self._next(self._item))

    def _next(self, item: Any) -> Any:
        """Handle ``item``; returns the item to serve next, if any."""
        if self._handle(item):
            return item
        if self._items:
            return self._items.popleft()
        self._busy = False
        self._item = None
        return None


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
        self._mailboxes: dict[str, FifoServer] = {}
        self._mutexes: dict[str, SimMutex] = {}
        self._pcie: BandwidthResource | None = None
        #: False once the node's compute has fail-stopped (see
        #: repro.sim.faults). Memory, NIC, and mailbox servers survive.
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
    def inbox(self, name: str) -> FifoServer:
        """The named mailbox; one that is not open is an error, never a
        silent new queue."""
        box = self._mailboxes.get(name)
        if box is None:
            raise SimulationError(f"no mailbox {name!r} is open on node {self.node_id}")
        return box

    def serve(self, name: str, service, handle) -> None:
        """Open the named mailbox with its :class:`FifoServer`."""
        if name in self._mailboxes:
            raise SimulationError(f"mailbox {name!r} is already open")
        self._mailboxes[name] = FifoServer(self, service, handle)

    def drop_inbox(self, name: str) -> None:
        """Close a mailbox whose owner is finished, at the end of its
        level; one that still holds an item, queued or in service, would
        lose it: that is a :class:`SimulationError`."""
        box = self._mailboxes.pop(name, None)
        if box is not None and len(box):
            raise SimulationError(
                f"mailbox {name!r} of node {self.node_id} dropped with "
                f"{len(box)} item(s) unserved"
            )

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

    def charge(self, cost: "OpCost"):
        """One operation's cost on this node, as one waitable: ``yield
        node.charge(cost)``.

        ``cost.cpu`` is exclusive core time, scaled by any active
        straggler window (the pooled timer), and ``cost.bytes`` then go
        through the shared memory bandwidth (the transfer); with both, a
        :class:`TwoPhaseCharge`, and with neither, the engine's
        :class:`~repro.sim.engine.NoWait`. Every sequence number is drawn
        where the generator helper this replaced drew it.
        """
        cpu = cost.cpu
        if cpu > 0:
            if self.slow_windows:
                cpu *= self.cpu_scale()
            timer = self.engine.timeout(cpu)
            if cost.bytes > 0:
                return TwoPhaseCharge(timer, self.membw, cost.bytes)
            return timer
        if cost.bytes > 0:
            return self.membw.transfer(cost.bytes)
        return self.engine.no_wait

    def occupy(self, duration: float):
        """Plain untraced core time (overheads), as one waitable:
        ``yield node.occupy(seconds)``."""
        if duration > 0:
            if self.slow_windows:
                duration *= self.cpu_scale()
            return self.engine.timeout(duration)
        return self.engine.no_wait

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.node_id}, cores={self.cores})"
