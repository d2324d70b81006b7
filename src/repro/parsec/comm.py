"""The communication engine: one dedicated comm thread per node.

"The actual data transfer calls are issued by the runtime system (...
by a specialized communication thread that runs on a dedicated core)."

Each node runs one comm-thread process serving a single FIFO mailbox
that carries both *outgoing send requests* (enqueued by completing
tasks on this node) and *incoming network messages* (delivered by the
transport). Every item costs the per-message software overhead; sends
then go to the NIC asynchronously (the comm thread does not block on
the wire — that is what lets PaRSEC pipeline transfers behind
computation, and what floods the network when no priorities throttle
the READ tasks, Figure 11).
"""

from __future__ import annotations

import sys
from typing import Any, Optional, TYPE_CHECKING

from repro.sim.network import BatchPayload, Coalescer, Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parsec.runtime import ParsecRuntime

__all__ = ["CommThread"]

_TAG_CACHE: dict[str, str] = {}


def _dataflow_tag(class_name: str) -> str:
    """Interned ``parsec:<class>`` wire tag (one string per task class,
    however many messages carry it)."""
    tag = _TAG_CACHE.get(class_name)
    if tag is None:
        tag = _TAG_CACHE[class_name] = sys.intern(f"parsec:{class_name}")
    return tag


class CommThread:
    """Per-node communication service.

    The inbox names carry the runtime's instance id: several PaRSEC
    sections may execute on the same simulated machine over a program's
    lifetime (the NWChem integration driver runs one per ported kernel,
    a multi-level workload one per level), each with its own mailboxes.
    They live as long as the runtime: :meth:`close` removes them, and
    with them the threads parked there, when the section is finished.
    """

    def __init__(self, runtime: "ParsecRuntime", node) -> None:
        self.runtime = runtime
        self.node = node
        self.engine = runtime.cluster.engine
        self.inbox_name = f"parsec.comm#{runtime.instance_id}"
        self.ctrl_name = f"parsec.ctrl#{runtime.instance_id}"
        self.messages_processed = 0
        self.metrics = metrics = runtime.cluster.metrics
        self._m_forwarded = metrics.counter("parsec.forwarded")
        self._m_messages_remote = metrics.counter("parsec.messages_remote")
        self._m_bytes_remote = metrics.counter("parsec.bytes_remote")
        # dataflow-only coalescing: the steal control plane keeps its
        # dedicated latency-critical lane un-batched
        self._coalescer: Optional[Coalescer] = None
        if runtime.coalescing is not None:
            self._coalescer = Coalescer(
                runtime.cluster.network,
                node.node_id,
                runtime.coalescing,
                inbox=self.inbox_name,
                batch_tag="parsec:batch",
            )
        self.engine.process(
            self._serve(), name=f"parsec.comm{node.node_id}#{runtime.instance_id}"
        )
        if runtime.steal_enabled:
            # latency-critical control plane: steal REQ/GRANT/DENY must
            # not queue behind the victim's data-plane backlog, or every
            # reply arrives after the imbalance it could have fixed.
            # Only spawned under an active StealPolicy so the extra
            # process cannot perturb non-stealing virtual timings.
            self.engine.process(
                self._serve_ctrl(),
                name=f"parsec.ctrl{node.node_id}#{runtime.instance_id}",
            )

    def close(self) -> None:
        """Remove this runtime's mailboxes from the node (see
        :meth:`ParsecRuntime.shutdown`); the parked threads go with them."""
        self.node.drop_inbox(self.inbox_name)
        self.node.drop_inbox(self.ctrl_name)

    def send(
        self,
        consumer_key: tuple,
        flow: str,
        data: Any,
        size_bytes: float,
        tag: Any = None,
    ) -> None:
        """Enqueue an outgoing transfer (called at task completion).

        ``tag`` identifies the producing task; it rides along with the
        payload so the consumer can order multi-delivery flows
        canonically regardless of network arrival order."""
        if self.metrics.enabled and (nbytes := getattr(data, "nbytes", 0)):
            # array bytes parked in send mailboxes until _serve takes them
            # (a payload with several remote consumers counts once per send)
            self.runtime._queued_bytes += nbytes
            if self.runtime._queued_bytes > self.runtime._queued_bytes_hwm:
                self.runtime._queued_bytes_hwm = self.runtime._queued_bytes
        self.node.inbox(self.inbox_name).put(
            ("send", consumer_key, flow, data, size_bytes, tag)
        )

    def steal_send(self, dest_node: int, payload: tuple, size_bytes: float) -> None:
        """Enqueue an outgoing work-stealing control message.

        Steal traffic rides the control plane and the shared NIC; it
        pays the same per-message software overhead and pack rate as
        dataflow, but is served by its own thread."""
        self.node.inbox(self.ctrl_name).put(("steal", dest_node, payload, size_bytes))

    def _serve_ctrl(self):
        """The steal control plane: serve REQ/GRANT/DENY serially."""
        runtime = self.runtime
        machine = runtime.cluster.machine
        inbox = self.node.inbox(self.ctrl_name)
        network = runtime.cluster.network
        while True:
            # synchronous fast path: pop waiting mail without a SimEvent
            # or lane hop (see _serve)
            ok, item = inbox.try_get()
            if not ok:
                item = yield inbox.get()
            size_bytes = item.size_bytes if isinstance(item, Message) else item[3]
            service = machine.comm_thread_overhead_s + (
                size_bytes / machine.comm_pack_bytes_per_s
            )
            if service > 0:
                yield self.engine.timeout(service)
            self.messages_processed += 1
            if isinstance(item, Message):
                assert runtime.stealing is not None  # ctrl plane implies stealing
                runtime.stealing.on_message(self.node.node_id, item.payload)
            else:
                _, dest_node, payload, size_bytes = item
                network.send(
                    self.node.node_id,
                    dest_node,
                    size_bytes,
                    payload,
                    inbox=self.ctrl_name,
                    tag="parsec:steal",
                )

    def _serve(self):
        runtime = self.runtime
        machine = runtime.cluster.machine
        inbox = self.node.inbox(self.inbox_name)
        network = runtime.cluster.network
        metrics = self.metrics
        overhead = machine.comm_thread_overhead_s
        pack_rate = machine.comm_pack_bytes_per_s
        timeout = self.engine.timeout
        while True:
            # synchronous fast path: pop waiting mail without a SimEvent
            # or lane hop. The service instant is unchanged; only the
            # same-instant interleaving differs, and the golden digests
            # pin that it is not observable.
            ok, item = inbox.try_get()
            if not ok:
                item = yield inbox.get()
            if isinstance(item, Message):
                size_bytes = item.size_bytes
            else:
                size_bytes = item[4]
            # serial per-message handling: fixed overhead plus staging
            # the payload through PaRSEC-managed buffers
            service = overhead + size_bytes / pack_rate
            if service > 0:
                yield timeout(service)
            self.messages_processed += 1
            assert runtime.graph is not None  # comm traffic implies a live graph
            if isinstance(item, Message) and isinstance(item.payload, BatchPayload):
                # a coalesced dataflow batch: the service charge above
                # already covered the summed bytes with ONE per-message
                # overhead; deliver the items in submit order
                for sub, sub_bytes in zip(item.payload.items, item.payload.sizes):
                    consumer_key, flow, data, tag = sub
                    consumer_node = runtime.graph.instances[consumer_key].node
                    if consumer_node != self.node.node_id:
                        # a moved consumer forwards its item alone
                        if metrics.enabled:
                            self._m_forwarded.value += 1.0
                        network.send(
                            self.node.node_id,
                            consumer_node,
                            sub_bytes,
                            sub,
                            inbox=self.inbox_name,
                            tag=_dataflow_tag(consumer_key[0]),
                        )
                        continue
                    runtime._deliver(consumer_key, flow, data, tag=tag)
                continue
            if isinstance(item, Message):
                # incoming: payload is (consumer_key, flow, data, tag)
                consumer_key, flow, data, tag = item.payload
                consumer_node = runtime.graph.instances[consumer_key].node
                if consumer_node != self.node.node_id:
                    # the consumer moved while this message was in flight
                    # (stolen chain or crash re-homing): forward one hop
                    # instead of teleporting the data to the new owner
                    if metrics.enabled:
                        self._m_forwarded.value += 1.0
                    network.send(
                        self.node.node_id,
                        consumer_node,
                        item.size_bytes,
                        item.payload,
                        inbox=self.inbox_name,
                        tag=_dataflow_tag(consumer_key[0]),
                    )
                    continue
                runtime._deliver(consumer_key, flow, data, tag=tag)
            else:
                _, consumer_key, flow, data, size_bytes, tag = item
                if runtime._queued_bytes:
                    runtime._queued_bytes -= getattr(data, "nbytes", 0)
                # the consumer's home node is re-resolved at send time:
                # a crash may have re-homed it since the producer ran
                consumer_node = runtime.graph.instances[consumer_key].node
                runtime.bytes_remote += size_bytes
                runtime.messages_remote += 1
                if metrics.enabled:
                    self._m_messages_remote.value += 1.0
                    self._m_bytes_remote.value += size_bytes
                if self._coalescer is not None:
                    self._coalescer.submit(
                        consumer_node,
                        size_bytes,
                        (consumer_key, flow, data, tag),
                        tag=_dataflow_tag(consumer_key[0]),
                    )
                else:
                    network.send(
                        self.node.node_id,
                        consumer_node,
                        size_bytes,
                        (consumer_key, flow, data, tag),
                        inbox=self.inbox_name,
                        tag=_dataflow_tag(consumer_key[0]),
                    )
