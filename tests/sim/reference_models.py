"""Reference models the oracle properties compare the live code against
(``test_oracles.py``, ``test_decision_oracles.py``).

Each is the code it replaced, kept verbatim in behaviour:

- :class:`ReferenceEngine` drains with the loop that shed stale heap
  heads before every event and resumed every fired resumed-mode timer
  through the immediate lane, and arms
  :meth:`~repro.sim.engine.Engine.timeout` through ``Timer.after``;
- :func:`reference_send` delivers a message with a ``Process`` over the
  transfer generator, holding each NIC channel with the generator helper
  that ``Resource`` used to provide, and a same-node message with one
  lane hop;
- :func:`killable` drives a task body step by step and consults the
  abort predicate after every successful resume — what the process
  abort rule (:meth:`~repro.sim.engine.Process.abortable`) does;
- :func:`reference_eligible_chains` rescans every chain of the level on
  each steal request — what the live-chain index answers;
- :func:`reference_derive_seed` hashes the whole ``f"{seed}:{purpose}"``
  text — what the cached seed prefix reproduces;
- :class:`ReferenceBandwidth` charges, finishes and re-arms through the
  general helpers on every arrival and wakeup — what the inlined
  ``BandwidthResource`` paths, lone job included, reproduce;
- :func:`reference_server` serves a node mailbox with a ``Process`` over
  the service loop the GA handler, the NXTVAL counter, the PaRSEC comm
  thread and the DTD receiver each ran — what
  :class:`~repro.sim.queues.FifoServer` reproduces as a callback chain.

Any difference in event order, sequence draws, delivery times, fault
counters or decisions between these and the live code is a bug in the
live code.
"""

from __future__ import annotations

import hashlib
import heapq
import sys
from typing import Callable, Generator, Optional

from repro.parsec.ptg import CLAIMED, DONE, STARTED
from repro.parsec.stealing import MIN_BENEFIT_RATIO
from repro.sim.engine import Engine, Process, SimEvent
from repro.sim.faults import MSG_DELAY_S
from repro.sim.network import Message, Network
from repro.sim.queues import Store
from repro.sim.resources import BandwidthResource, Resource
from repro.sim.timeline import _DIRECT, _POOLED, Timer
from repro.util.errors import SimulationError, TaskKilled


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
            backoff = faults.plan.backoff(attempt)
            report.recovery_overhead_s += backoff
            yield timeout(backoff)
            attempt += 1
            continue
        if fate == "delay":
            faults.report.messages_delayed += 1
            yield timeout(MSG_DELAY_S)
        yield timeout(latency)
        if metrics.enabled:
            backlog, hwm = dst_node.nic.rx.queue_length, hwms[message.dst, "rx"]
            if backlog > hwm.value:
                hwm.value = backlog
        yield from _use(dst_node.nic.rx, wire)
        if fate == "dup":
            faults.report.messages_duplicated += 1
            network.dup_bytes += message.size_bytes
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
        network._m_message_bytes.observe(size_bytes)
        if src != dst:
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


# ----------------------------------------------------------------------
# crash aborts: the per-step wrapper
# ----------------------------------------------------------------------
def killable(gen: Generator, should_abort: Callable[[], bool]):
    """Drive a task-body generator, aborting it between steps.

    Generator helper (``completed = yield from killable(body, pred)``).
    After every resume of the enclosing process, ``should_abort()`` is
    consulted; if true, :class:`~repro.util.errors.TaskKilled` is thrown
    into the body so its ``finally`` blocks run — and any waitables those
    cleanup blocks yield are still driven to completion. Returns ``True``
    if the body finished normally, ``False`` if it was aborted. Ordinary
    exceptions raised by the body propagate unchanged, and failed
    waitables are thrown into the body exactly as
    :class:`~repro.sim.engine.Process` would.
    """
    killed = False
    pending_throw: Optional[BaseException] = None
    payload = None
    first = True
    while True:
        try:
            if pending_throw is not None:
                exc, pending_throw = pending_throw, None
                target = gen.throw(exc)
            elif first:
                target = gen.send(None)
            else:
                target = gen.send(payload)
        except StopIteration:
            return not killed
        except TaskKilled:
            return False
        first = False
        try:
            payload = yield target
        except BaseException as exc:  # failed waitable: forward to the body
            pending_throw = exc
            continue
        if not killed and should_abort():
            killed = True
            pending_throw = TaskKilled("node crashed under this task")


# ----------------------------------------------------------------------
# steal requests: the full rescan
# ----------------------------------------------------------------------
def reference_eligible_chains(coordinator, victim: int) -> list:
    """``StealCoordinator._eligible_chains`` as a scan of every chain."""
    machine = coordinator.cluster.machine
    move_rate = 1.0 / machine.comm_pack_bytes_per_s + 1.0 / (
        machine.nic_bw_bytes_per_s
    )
    graph = coordinator.graph
    eligible = []
    for chain_id, tasks in coordinator.chain_tasks.items():
        remaining = [row for row in tasks if not graph.flags[row] & DONE]
        if not remaining:
            continue
        if any(
            graph.nodes[row] != victim
            or graph.flags[row] & (STARTED | CLAIMED)
            or row in graph.stolen_from
            for row in remaining
        ):
            continue
        fwd = coordinator._forward_bytes(remaining)
        flops = coordinator._remaining_flops(remaining)
        work_s = flops / (machine.gemm_gflops * 1.0e9)
        if work_s < MIN_BENEFIT_RATIO * fwd * move_rate:
            continue
        eligible.append((chain_id, remaining, flops, fwd))
    return eligible


# ----------------------------------------------------------------------
# seed derivation: the whole text hashed per call
# ----------------------------------------------------------------------
def reference_derive_seed(master_seed: int, purpose: str) -> int:
    """``derive_seed`` without the cached prefix state."""
    if master_seed < 0:
        raise ValueError(f"master_seed must be non-negative, got {master_seed}")
    digest = hashlib.sha256(f"{master_seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


# ----------------------------------------------------------------------
# memory bandwidth: every event through the general helpers
# ----------------------------------------------------------------------
class ReferenceBandwidth(BandwidthResource):
    """``BandwidthResource`` without the inlined and lone-job paths."""

    __slots__ = ()

    def transfer(self, amount: float) -> SimEvent:
        if amount < 0:
            raise SimulationError(f"negative transfer amount {amount}")
        event = self.engine.event()
        if amount == 0:
            event.succeed()
            return event
        self._advance()
        self._rem.append(amount)
        self._size.append(amount)
        self._events.append(event)
        self.total_work += amount
        self._reschedule()
        return event

    def _on_wakeup(self) -> None:
        self._advance()
        if not self._rem:
            return
        rate = self.capacity / len(self._rem)
        cap = self.per_job_cap
        if cap is not None and cap < rate:
            rate = cap
        now = self.engine.now
        rem, size, events = self._rem, self._size, self._events
        finished, keep_r, keep_s, keep_e = [], [], [], []
        for i, r in enumerate(rem):
            if r <= self._EPS * size[i] or now + r / rate == now:
                finished.append(events[i])
            else:
                keep_r.append(r)
                keep_s.append(size[i])
                keep_e.append(events[i])
        if not finished:
            self._reschedule()
            return
        self._rem, self._size, self._events = keep_r, keep_s, keep_e
        for event in finished:
            event.succeed()
        self._reschedule()


# ----------------------------------------------------------------------
# mailbox servers: a parked process per mailbox
# ----------------------------------------------------------------------
def reference_server(node, name: str, service, handle) -> Process:
    """A FIFO server on ``node``'s mailbox ``name`` as it was: a process
    over the service loop, parked on a :class:`Store` between items.
    Pops waiting mail in place (the comm thread's ``try_get`` fast
    path), skips a zero charge, and serves an item again while its
    handler returns True (the GA handler's loop over a request batch)."""
    inbox = node._mailboxes[name] = Store(node.engine)  # a node's old mailbox

    def loop():
        timeout = node.engine.timeout
        while True:
            ok, item = inbox.try_get()
            if not ok:
                item = yield inbox.get()
            while True:
                seconds, nbytes = service(item)
                if seconds > 0:
                    yield timeout(seconds)
                if nbytes > 0:
                    yield node.membw.transfer(nbytes)
                if not handle(item):
                    break
            del item  # a parked server must not pin what it served last

    return Process(node.engine, loop(), name=f"server:{name}")
