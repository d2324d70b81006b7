"""Interconnect model: NICs, messages, and transfers.

Each node owns a :class:`NIC` with one transmit and one receive channel,
each a unit-capacity FIFO server. A message occupies the sender's TX
channel for its serialization time, crosses the wire after a fixed
latency, then occupies the receiver's RX channel for the same time
(cut-through, not store-and-forward). Congestion is emergent: when a
runtime floods the network — as PaRSEC variant v2 does at startup,
Figure 11 — deep FIFO backlogs form at the NICs and delivery times grow,
with no special-case code.

Intra-node messages bypass the NIC entirely and deliver immediately;
their memory cost, if any, is charged by the layer that owns the data
(Global Arrays or the PaRSEC data repository).
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from typing import Any, Optional, TYPE_CHECKING

from repro.obs.registry import NULL_METRICS, MetricsRegistry
from repro.sim.engine import Engine, SimEvent
from repro.sim.faults import MSG_DELAY_S
from repro.sim.resources import Resource
from repro.sim.timeline import Timer
from repro.util.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.cost import MachineModel
    from repro.sim.faults import FaultInjector
    from repro.sim.node import Node

__all__ = [
    "BatchPayload",
    "CoalescePolicy",
    "Coalescer",
    "Message",
    "NIC",
    "Network",
]


class Message:
    """One network message; ``payload`` is opaque to the transport.

    The receiver takes the payload off it (:meth:`take`): a finished
    transfer keeps its message (it is the transfer's value), so a served
    message must not keep the data it carried.
    """

    __slots__ = ("seq", "src", "dst", "size_bytes", "payload", "tag", "sent_at")

    def __init__(
        self,
        seq: int,
        src: int,
        dst: int,
        size_bytes: float,
        payload: Any,
        tag: str,
        sent_at: float,
    ) -> None:
        self.seq = seq
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.payload = payload
        self.tag = tag
        self.sent_at = sent_at

    def take(self) -> Any:
        """The payload, handed over: the message lets go of it."""
        payload, self.payload = self.payload, None
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(#{self.seq} {self.src}->{self.dst} "
            f"{self.size_bytes:.0f}B tag={self.tag!r})"
        )


class _Transfer(SimEvent):
    """One message on its way: a waitable whose states are callbacks.

    The transport is an active message, not a coroutine: each state
    arms what it waits on with the next state as the continuation, so a
    message costs no frame and no process. A same-node message takes one
    lane hop, then is delivered. A remote message runs, per transmission
    attempt: the TX grant (at once when the sender's TX channel is free,
    else on a :meth:`WaitQueue.park` event), a hold of the wire time,
    release and the attempt's fate — a drop waits out the retransmit
    backoff and starts the next attempt at the TX grant, a delay adds its
    latency first — then the wire latency, the RX grant, a hold, release,
    for a ``dup`` the duplicate's second RX crossing, and delivery. It
    succeeds with the message once delivered, so a sender may ``yield``
    it (legacy ``GET_HASH_BLOCK`` does).

    Every state draws its sequence numbers where the ``Process`` over a
    transfer generator that this replaces drew them: one lane entry at
    creation, one row per hold, latency and backoff plus its resume, a
    grant's dispatch, and a waiter's resume per waiter at delivery.
    """

    __slots__ = (
        "_network",
        "_message",
        "_dst_node",
        "_inbox",
        "_on_deliver",
        "_tx",
        "_rx",
        "_wire",
        "_attempt",
        "_fate",
    )

    def __init__(
        self,
        network: "Network",
        message: "Message",
        src_node: "Node",
        dst_node: "Node",
        inbox: Optional[str],
        on_deliver,
    ) -> None:
        super().__init__(network.engine)
        self._network = network
        self._message = message
        self._dst_node = dst_node
        self._inbox = inbox
        self._on_deliver = on_deliver
        self._attempt = 0
        self._fate = "ok"
        if src_node is dst_node:
            # intra-node: no wire, no NIC, straight to delivery
            network.engine.call_soon(self._deliver)
        else:
            self._tx = src_node.nic.tx
            self._rx = dst_node.nic.rx
            self._wire = network.machine.wire_time(message.size_bytes)
            network.engine.call_soon(self._tx_grant)

    def _tx_grant(self, _arg) -> None:
        tx = self._tx
        if self._network.metrics.enabled:
            backlog = len(tx._waiters)  # inlined Resource.queue_length
            hwm = self._network._m_backlog_hwm[self._message.src, "tx"]
            if backlog > hwm.value:
                hwm.value = backlog
        if tx.try_acquire():
            self._network.engine.timeout(self._wire)._wait(self._tx_done)
        else:
            tx.acquire()._wait(self._tx_granted)

    def _tx_granted(self, _grant) -> None:
        self._network.engine.timeout(self._wire)._wait(self._tx_done)

    def _tx_done(self, _arg) -> None:
        self._tx.release()
        network = self._network
        faults = network.faults
        if faults is None:
            fate = "ok"
        else:
            message = self._message
            fate = faults.plan.message_fate(message.tag, message.seq, self._attempt)
        timeout = network.engine.timeout
        if fate == "drop":
            # lost on the wire: wait out the ack timeout (exponential
            # backoff), then retransmit
            assert faults is not None  # fates only exist under an injector
            report = faults.report
            report.messages_dropped += 1
            report.retransmits += 1
            backoff = faults.plan.backoff(self._attempt)
            report.recovery_overhead_s += backoff
            timeout(backoff)._wait(self._retransmit)
            return
        self._fate = fate
        if fate == "delay":
            assert faults is not None
            faults.report.messages_delayed += 1
            timeout(MSG_DELAY_S)._wait(self._delayed)
        else:
            timeout(network.machine.net_latency_s)._wait(self._rx_grant)

    def _retransmit(self, _arg) -> None:
        self._attempt += 1
        self._tx_grant(None)

    def _delayed(self, _arg) -> None:
        network = self._network
        network.engine.timeout(network.machine.net_latency_s)._wait(self._rx_grant)

    def _rx_grant(self, _arg) -> None:
        if self._network.metrics.enabled:
            backlog = len(self._rx._waiters)  # inlined Resource.queue_length
            hwm = self._network._m_backlog_hwm[self._message.dst, "rx"]
            if backlog > hwm.value:
                hwm.value = backlog
        self._rx_take()

    def _rx_take(self) -> None:
        rx = self._rx
        if rx.try_acquire():
            self._network.engine.timeout(self._wire)._wait(self._rx_done)
        else:
            rx.acquire()._wait(self._rx_granted)

    def _rx_granted(self, _grant) -> None:
        self._network.engine.timeout(self._wire)._wait(self._rx_done)

    def _rx_done(self, _arg) -> None:
        self._rx.release()
        if self._fate == "dup":
            # the duplicate also crosses the receiver's NIC, then is
            # discarded by sequence number (exactly-once)
            self._fate = "ok"
            network = self._network
            assert network.faults is not None
            network.faults.report.messages_duplicated += 1
            size = self._message.size_bytes
            network.dup_bytes += size
            self._rx_take()
            return
        self._deliver(None)

    def _deliver(self, _arg) -> None:
        message = self._message
        if self._on_deliver is not None:
            self._on_deliver(message)
        else:
            self._dst_node.inbox(self._inbox).put(message)
        self.succeed(message)


class NIC:
    """One node's network interface: serialized TX and RX channels."""

    def __init__(self, engine: Engine, node_id: int) -> None:
        self.tx = Resource(engine, capacity=1, name=f"nic{node_id}.tx")
        self.rx = Resource(engine, capacity=1, name=f"nic{node_id}.rx")


def _fault_count(field: str):
    """Reads one :class:`~repro.sim.faults.FaultReport` count off a network."""
    return lambda network: network.faults and getattr(network.faults.report, field)


_NETWORK_SERIES = {
    "net.messages": "messages_sent",
    "net.bytes": ("bytes_sent", "messages_sent"),
    "net.remote_messages": "remote_messages",
    "net.dup_bytes": ("dup_bytes", _fault_count("messages_duplicated")),
    "net.retransmits": _fault_count("retransmits"),
}


class Network:
    """Routes messages between registered nodes.

    :meth:`send` is fire-and-forget from the caller's point of view: it
    starts a transfer and returns it, so a sender *may* wait on
    delivery (blocking semantics, as legacy ``GET_HASH_BLOCK`` needs) or
    ignore it (PaRSEC's implicit asynchronous transfers).
    """

    def __init__(
        self,
        engine: Engine,
        machine: "MachineModel",
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        self.engine = engine
        self.machine = machine
        self.metrics = metrics
        self._m_message_bytes = metrics.histogram("net.message_bytes")
        self._m_link_bytes = metrics.counters("net.link.bytes", "src", "dst")
        self._m_backlog_hwm = metrics.gauges("nic.backlog.hwm", "node", "dir")
        self._nodes: dict[int, "Node"] = {}
        self._seq = itertools.count()
        #: set by Cluster.install_faults(); message fates apply per
        #: transmission attempt, with ack-timeout retransmission
        self.faults: Optional["FaultInjector"] = None
        # statistics
        self.messages_sent = 0
        self.bytes_sent = 0.0
        self.remote_messages = 0
        #: wire bytes of duplicated transmissions: a ``dup`` fate crosses
        #: the receiver's RX channel twice, and the second crossing is
        #: counted here (never in ``bytes_sent``), so NIC occupancy
        #: reconciles with the byte counters under fault sweeps
        self.dup_bytes = 0.0
        metrics.collect(self, _NETWORK_SERIES)

    def register(self, node: "Node") -> None:
        """Attach a node; its id must be unique within the network."""
        if node.node_id in self._nodes:
            raise SimulationError(f"node {node.node_id} registered twice")
        self._nodes[node.node_id] = node

    def node(self, node_id: int) -> "Node":
        """Look up a registered node by id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise SimulationError(f"unknown node {node_id}") from None

    def send(
        self,
        src: int,
        dst: int,
        size_bytes: float,
        payload: Any,
        inbox: Optional[str] = None,
        tag: str = "",
        on_deliver=None,
    ) -> _Transfer:
        """Start delivering ``payload`` to ``dst``.

        Exactly one of ``inbox`` (named mailbox at the destination) or
        ``on_deliver`` (callback invoked with the :class:`Message` at
        arrival time — used for request/response protocols like the
        Global Arrays handlers) must be given. Returns the transfer, a
        waitable that succeeds with the message at delivery.
        """
        if not size_bytes >= 0:  # NaN too: it would poison the byte counts
            raise SimulationError(f"message size must be >= 0, got {size_bytes}")
        if (inbox is None) == (on_deliver is None):
            raise SimulationError("send() needs exactly one of inbox/on_deliver")
        message = Message(
            # tags repeat per task class / array; interning keeps one
            # string alive however many messages carry it
            next(self._seq), src, dst, size_bytes, payload, sys.intern(tag),
            self.engine.now,
        )
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        if src != dst:
            self.remote_messages += 1
        if self.metrics.enabled:
            self._m_message_bytes.observe(size_bytes)
            if src != dst:
                self._m_link_bytes[src, dst].value += size_bytes
        return _Transfer(
            self, message, self.node(src), self.node(dst), inbox, on_deliver
        )


# ----------------------------------------------------------------------
# per-destination message coalescing (opt-in, see RunConfig.coalescing)
# ----------------------------------------------------------------------
#: how long the first message in a window waits for company
COALESCE_WINDOW_S = 5.0e-6
#: pool at most this many messages toward one destination before
#: flushing early
COALESCE_MAX_BATCH = 8


@dataclass(frozen=True)
class CoalescePolicy:
    """Turns per-destination aggregation on: ``coalescing=CoalescePolicy()``
    (``None`` = every message leaves at once). It carries no settings.

    A submitted message opens (or joins) a window keyed by destination;
    the window flushes after :data:`COALESCE_WINDOW_S` simulated seconds,
    or as soon as :data:`COALESCE_MAX_BATCH` messages have pooled,
    whichever comes first. A window holding one message flushes as a
    plain send — byte-for-byte what the sender would have produced
    without the coalescer — so coalescing only changes the wire when it
    actually merges traffic.
    """


class BatchPayload:
    """Several logical payloads riding one wire message.

    The transport treats it like any other payload; receivers that
    opted into coalescing unpack and service the items in submit
    order (FIFO within the batch, matching un-coalesced delivery).
    ``sizes`` keeps each item's individual wire size so a receiver can
    re-send one item on its own (the PaRSEC forward-on-moved-consumer
    path needs it).
    """

    __slots__ = ("items", "sizes")

    def __init__(self, items: list, sizes: list[float]) -> None:
        self.items = items
        self.sizes = sizes

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


class _Window:
    """Open aggregation window toward one destination."""

    __slots__ = ("items", "item_sizes", "size_bytes", "tags", "flush_call")

    def __init__(self) -> None:
        self.items: list = []
        self.item_sizes: list[float] = []
        self.size_bytes = 0.0
        self.tags: list[str] = []
        self.flush_call: Optional[Timer] = None


_COALESCER_SERIES = {
    "net.coalesce.batches": "batches",
    "net.coalesce.batched_items": "batched_items",
    "net.coalesce.messages_saved": "messages_saved",
}


class Coalescer:
    """Per-destination aggregation in front of :meth:`Network.send`.

    One instance sits on each participating node (per traffic lane —
    GA requests and PaRSEC dataflow keep separate coalescers so
    control-plane and bulk traffic never merge). ``submit`` replaces a
    direct ``send``: messages to the same remote destination that land
    inside the window leave as ONE wire message of summed size — one
    latency charge — wrapped in a :class:`BatchPayload`. Local (same
    node) messages bypass the window entirely; they never touch the
    wire in the first place.

    Flush order is deterministic: windows are armed through
    :meth:`Engine.schedule`, so they fire in ``(time, seq)`` order like
    every other simulated event.
    """

    def __init__(
        self,
        network: Network,
        src: int,
        policy: Optional[CoalescePolicy],
        inbox: str,
        batch_tag: str = "batch",
    ) -> None:
        self.network = network
        self.src = src
        #: a window of one (coalescing off) passes every message through
        self.max_batch = 1 if policy is None else COALESCE_MAX_BATCH
        self.inbox = inbox
        self.batch_tag = batch_tag
        self._windows: dict[int, _Window] = {}
        # statistics, read by the registry until the owner releases this
        self.batches = 0
        self.batched_items = 0
        self.messages_saved = 0
        network.metrics.collect(self, _COALESCER_SERIES)

    def submit(self, dst: int, size_bytes: float, payload: Any, tag: str = "") -> None:
        """Queue one message for ``dst``; flushes when the window expires
        or fills."""
        if dst == self.src or self.max_batch <= 1:
            self.network.send(
                self.src, dst, size_bytes, payload, inbox=self.inbox, tag=tag
            )
            return
        window = self._windows.get(dst)
        if window is None:
            window = _Window()
            self._windows[dst] = window
        if not window.items:
            window.flush_call = self.network.engine.schedule(
                COALESCE_WINDOW_S, self._flush, dst
            )
        window.items.append(payload)
        window.item_sizes.append(size_bytes)
        window.size_bytes += size_bytes
        window.tags.append(tag)
        if len(window.items) >= self.max_batch:
            if window.flush_call is not None:
                window.flush_call.cancel()
            self._flush(dst)

    def _flush(self, dst: int) -> None:
        window = self._windows[dst]
        items = window.items
        if not items:  # pragma: no cover - defensive (cancelled + refired)
            return
        if len(items) == 1:
            # a lone message leaves exactly as an un-coalesced send would
            self.network.send(
                self.src,
                dst,
                window.size_bytes,
                items[0],
                inbox=self.inbox,
                tag=window.tags[0],
            )
        else:
            self.batches += 1
            self.batched_items += len(items)
            self.messages_saved += len(items) - 1
            self.network.send(
                self.src,
                dst,
                window.size_bytes,
                BatchPayload(list(items), list(window.item_sizes)),
                inbox=self.inbox,
                tag=self.batch_tag,
            )
        window.items = []
        window.item_sizes = []
        window.size_bytes = 0.0
        window.tags = []
        window.flush_call = None
