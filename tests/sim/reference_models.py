"""Reference models the oracle properties compare the engine and the
network against (``test_oracles.py``).

Both are the code they replaced, kept verbatim in behaviour:

- :class:`ReferenceEngine` drains with the loop that resumed every fired
  resumed-mode timer through the immediate lane, and arms
  :meth:`~repro.sim.engine.Engine.timeout` through ``Timer.after``;
- :func:`reference_send` delivers a message with a ``Process`` over the
  transfer generator, holding each NIC channel with the generator helper
  that ``Resource`` used to provide, and a same-node message with one
  lane hop.

Any difference in event order, sequence draws, delivery times or fault
counters between these and the live code is a bug in the live code.
"""

from __future__ import annotations

import heapq
import sys
from typing import Optional

from repro.sim.engine import Engine, Process, SimEvent
from repro.sim.network import Message, Network
from repro.sim.resources import Resource
from repro.sim.timeline import _DIRECT, _POOLED, Timer
from repro.util.errors import SimulationError


class ReferenceEngine(Engine):
    """The engine with the lane-hop-always drain loop."""

    def timeout(self, delay: float) -> Timer:
        pool = self._timeout_pool
        timer = pool.pop() if pool else Timer(self.timeline, pooled=True)
        return timer.after(delay)

    def run(self, until: Optional[float] = None) -> float:
        if self._running:
            raise SimulationError("Engine.run() is not reentrant")
        self._running = True
        timeline = self.timeline
        heap = timeline._heap
        lane = self._immediate
        popleft = lane.popleft
        pool = self._timeout_pool
        seq = self._seq
        pop = heapq.heappop
        try:
            while True:
                while heap and heap[0][1] != heap[0][2].armed:
                    pop(heap)
                    timeline._stale -= 1
                best = heap[0] if heap else None
                if lane:
                    head = lane[0]
                    if best is None:
                        if until is not None and head[0] > until:
                            self.now = until
                            return until
                        for _ in range(len(lane)):
                            head = popleft()
                            self.now = head[0]
                            head[2](head[3])
                        continue
                    best_time = best[0]
                    best_seq = best[1]
                    time = head[0]
                    if time < best_time or (time == best_time and head[1] < best_seq):
                        if until is not None and time > until:
                            self.now = until
                            return until
                        for _ in range(len(lane)):
                            head = lane[0]
                            time = head[0]
                            if time > best_time or (
                                time == best_time and head[1] > best_seq
                            ):
                                break
                            popleft()
                            self.now = time
                            head[2](head[3])
                        continue
                if best is None:
                    break
                time = best[0]
                if until is not None and time > until:
                    self.now = until
                    return until
                pop(heap)
                self.now = time
                timer = best[2]
                timer.armed = -1
                mode = timer._mode
                if mode == _DIRECT:
                    timer._cb()
                else:
                    cb = timer._cb
                    if cb is not None:
                        lane.append((time, next(seq), cb, None))
                    if mode == _POOLED:
                        timer._cb = None
                        pool.append(timer)
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False
        return self.now


def _use(resource: Resource, duration: float):
    """Hold one slot of ``resource`` for ``duration``: the uncontended
    grant is taken synchronously, a contended one parks."""
    if resource._in_use < resource.capacity:
        resource._in_use += 1
        resource.total_acquisitions += 1
        held = True
        grant = None
    else:
        grant = resource._waiters.park()
        held = False
    try:
        if grant is not None:
            yield grant
            held = True
        yield resource.engine.timeout(duration)
    finally:
        if held or (grant is not None and grant.triggered):
            resource.release()
        elif grant is not None:
            grant.abandon()


class _LocalDelivery(SimEvent):
    """A same-node message: one lane hop, then delivery."""

    __slots__ = ("_message", "_dst_node", "_inbox", "_on_deliver")

    def __init__(self, engine, message, dst_node, inbox, on_deliver) -> None:
        super().__init__(engine)
        self._message = message
        self._dst_node = dst_node
        self._inbox = inbox
        self._on_deliver = on_deliver
        engine.call_soon(self._fire, None)

    def _fire(self, _arg) -> None:
        if self._on_deliver is not None:
            self._on_deliver(self._message)
        else:
            self._dst_node.inbox(self._inbox).put(self._message)
        self.succeed(self._message)


def _transfer(network: Network, message: Message, inbox, on_deliver):
    src_node = network.node(message.src)
    dst_node = network.node(message.dst)
    metrics, hwms = network.metrics, network._m_backlog_hwm
    wire = network.machine.wire_time(message.size_bytes)
    timeout = network.engine.timeout
    latency = network.machine.net_latency_s
    attempt = 0
    while True:
        if metrics.enabled:
            backlog, hwm = src_node.nic.tx.queue_length, hwms[message.src, "tx"]
            if backlog > hwm.value:
                hwm.value = backlog
        yield from _use(src_node.nic.tx, wire)
        fate = "ok"
        faults = network.faults
        if faults is not None:
            fate = faults.plan.message_fate(message.tag, message.seq, attempt)
        if fate == "drop":
            report = faults.report
            report.messages_dropped += 1
            report.retransmits += 1
            if metrics.enabled:
                network._m_retransmits.value += 1.0
            backoff = faults.plan.backoff(attempt)
            report.recovery_overhead_s += backoff
            yield timeout(backoff)
            attempt += 1
            continue
        if fate == "delay":
            faults.report.messages_delayed += 1
            yield timeout(faults.plan.msg_delay_s)
        yield timeout(latency)
        if metrics.enabled:
            backlog, hwm = dst_node.nic.rx.queue_length, hwms[message.dst, "rx"]
            if backlog > hwm.value:
                hwm.value = backlog
        yield from _use(dst_node.nic.rx, wire)
        if fate == "dup":
            faults.report.messages_duplicated += 1
            network.dup_bytes += message.size_bytes
            if metrics.enabled:
                network._m_dup_bytes.value += message.size_bytes
            yield from _use(dst_node.nic.rx, wire)
        break
    if on_deliver is not None:
        on_deliver(message)
    else:
        dst_node.inbox(inbox).put(message)
    return message


def reference_send(
    network: Network,
    src: int,
    dst: int,
    size_bytes: float,
    payload,
    inbox: Optional[str] = None,
    tag: str = "",
    on_deliver=None,
):
    """``Network.send`` as it was: a transfer process per remote message."""
    message = Message(
        next(network._seq),
        src,
        dst,
        size_bytes,
        payload,
        sys.intern(tag),
        network.engine.now,
    )
    network.messages_sent += 1
    network.bytes_sent += size_bytes
    if src != dst:
        network.remote_messages += 1
    if network.metrics.enabled:
        network._m_messages.value += 1.0
        network._m_bytes.value += size_bytes
        network._m_message_bytes.observe(size_bytes)
        if src != dst:
            network._m_remote_messages.value += 1.0
            network._m_link_bytes[src, dst].value += size_bytes
    if src == dst:
        return _LocalDelivery(
            network.engine, message, network.node(dst), inbox, on_deliver
        )
    return Process(
        network.engine,
        _transfer(network, message, inbox, on_deliver),
        name=message.tag or "xfer",
    )
