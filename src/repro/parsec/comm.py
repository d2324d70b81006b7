"""The communication engine: one dedicated comm thread per node.

"The actual data transfer calls are issued by the runtime system (...
by a specialized communication thread that runs on a dedicated core)."

Each node's comm thread is a FIFO server on one mailbox that carries
both *outgoing send requests* (enqueued by completing tasks on this
node) and *incoming network messages* (delivered by the transport).
Every item costs the per-message software overhead; sends then go to
the NIC asynchronously (the comm thread does not block on the wire —
that is what lets PaRSEC pipeline transfers behind computation, and
what floods the network when no priorities throttle the READ tasks,
Figure 11).
"""

from __future__ import annotations

import sys
from typing import Any, Callable, TYPE_CHECKING

from repro.sim.network import BatchPayload, Coalescer, Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parsec.runtime import ParsecRuntime
    from repro.sim.cost import MachineModel

__all__ = ["CommThread", "comm_service"]

def comm_service(machine: "MachineModel") -> Callable[[Any], tuple[float, float]]:
    """The comm thread's charge for a network :class:`Message` or a send
    request (a tuple led by its wire size): the per-message overhead
    plus staging the payload through PaRSEC-managed buffers."""
    overhead = machine.comm_thread_overhead_s
    pack_rate = machine.comm_pack_bytes_per_s

    def service(item) -> tuple[float, float]:
        size_bytes = item.size_bytes if isinstance(item, Message) else item[0]
        return overhead + size_bytes / pack_rate, 0.0

    return service


class CommThread:
    """Per-node communication service: a data plane and a control plane
    for steal REQ/GRANT/DENY, which must not queue behind the victim's
    data backlog (an idle server costs nothing, so a run without
    stealing never sees it).

    The mailbox names carry the runtime's instance id: several PaRSEC
    sections may execute on the same simulated machine over a program's
    lifetime (the NWChem integration driver runs one per ported kernel,
    a multi-level workload one per level), each with its own mailboxes.
    They live as long as the runtime: :meth:`close` removes them when
    the section is finished.
    """

    def __init__(self, runtime: "ParsecRuntime", node) -> None:
        self.runtime = runtime
        self.node = node
        self.inbox_name = f"parsec.comm#{runtime.instance_id}"
        self.ctrl_name = f"parsec.ctrl#{runtime.instance_id}"
        self.metrics = metrics = runtime.cluster.metrics
        self._m_forwarded = metrics.counter("parsec.forwarded")
        # a dataflow message's wire tag is its consumer's class,
        # ``parsec:<class>``: one interned string per class of the level
        assert runtime.graph is not None  # launch() instantiates first
        template = runtime.graph.template
        self._class_of = template.class_of
        self._class_tags = tuple(
            sys.intern(f"parsec:{name}") for name, _ in template.classes
        )
        # dataflow-only coalescing (``runtime.coalescing=None`` passes
        # every send through): the steal control plane keeps its
        # dedicated latency-critical lane un-batched
        self._coalescer = Coalescer(
            runtime.cluster.network,
            node.node_id,
            runtime.coalescing,
            inbox=self.inbox_name,
            batch_tag="parsec:batch",
        )
        service = comm_service(runtime.cluster.machine)
        node.serve(self.inbox_name, service, self._on_data)
        node.serve(self.ctrl_name, service, self._on_ctrl)

    def close(self) -> None:
        """Remove this runtime's mailboxes from the node (see
        :meth:`ParsecRuntime.shutdown`) and let go of the runtime."""
        self.node.drop_inbox(self.inbox_name)
        self.node.drop_inbox(self.ctrl_name)
        self.metrics.release(self._coalescer)
        self.runtime = None

    def send(
        self,
        consumer: int,
        flow: str,
        data: Any,
        size_bytes: float,
        tag: Any = None,
    ) -> None:
        """Enqueue an outgoing transfer to the task row ``consumer``
        (called at task completion).

        ``tag`` identifies the producing task (its key); it rides along
        with the payload so the consumer can order multi-delivery flows
        canonically regardless of network arrival order."""
        if self.metrics.enabled and (nbytes := getattr(data, "nbytes", 0)):
            # array bytes parked in send mailboxes until _on_data takes them
            # (a payload with several remote consumers counts once per send)
            self.runtime._queued_bytes += nbytes
            if self.runtime._queued_bytes > self.runtime._queued_bytes_hwm:
                self.runtime._queued_bytes_hwm = self.runtime._queued_bytes
        self.node.inbox(self.inbox_name).put((size_bytes, consumer, flow, data, tag))

    def steal_send(self, dest_node: int, payload: tuple, size_bytes: float) -> None:
        """Enqueue an outgoing work-stealing control message.

        Steal traffic rides the control plane and the shared NIC; it
        pays the same per-message software overhead and pack rate as
        dataflow, but is served by its own server."""
        self.node.inbox(self.ctrl_name).put((size_bytes, dest_node, payload))

    def _on_ctrl(self, item) -> None:
        """The steal control plane: REQ/GRANT/DENY in, or one out."""
        if isinstance(item, Message):
            assert self.runtime.stealing is not None  # ctrl plane implies stealing
            self.runtime.stealing.on_message(self.node.node_id, item.take())
            return
        size_bytes, dest_node, payload = item
        self.runtime.cluster.network.send(
            self.node.node_id,
            dest_node,
            size_bytes,
            payload,
            inbox=self.ctrl_name,
            tag="parsec:steal",
        )

    def _on_data(self, item) -> None:
        """The data plane: a dataflow message (or coalesced batch) in,
        or one task output out to its consumer's node."""
        runtime = self.runtime
        if isinstance(item, Message):
            payload = item.take()
            if isinstance(payload, BatchPayload):
                # the service charge covered the summed bytes with ONE
                # per-message overhead; the items arrive in submit order
                for sub, sub_bytes in zip(payload.items, payload.sizes):
                    self._arrive(sub, sub_bytes)
            else:
                self._arrive(payload, item.size_bytes)
            return
        size_bytes, consumer, flow, data, tag = item
        if runtime._queued_bytes:
            runtime._queued_bytes -= getattr(data, "nbytes", 0)
        runtime.bytes_remote += size_bytes
        runtime.messages_remote += 1
        graph = runtime.graph
        assert graph is not None  # comm traffic implies a live graph
        # the consumer's home node is re-resolved at send time: a crash
        # may have re-homed it since the producer ran
        self._coalescer.submit(
            graph.nodes[consumer],
            size_bytes,
            (consumer, flow, data, tag),
            tag=self._class_tags[self._class_of[consumer]],
        )

    def _arrive(self, payload: tuple, size_bytes: float) -> None:
        """Deliver one ``(consumer row, flow, data, tag)`` payload, or
        forward it one hop if the consumer moved while it was in flight
        (stolen chain or crash re-homing) — never teleport the data to
        the new owner. An item of a batch is forwarded alone."""
        runtime = self.runtime
        consumer, flow, data, tag = payload
        graph = runtime.graph
        assert graph is not None  # comm traffic implies a live graph
        consumer_node = graph.nodes[consumer]
        if consumer_node == self.node.node_id:
            runtime._deliver(consumer, flow, data, tag=tag)
            return
        if self.metrics.enabled:
            self._m_forwarded.value += 1.0
        runtime.cluster.network.send(
            self.node.node_id,
            consumer_node,
            size_bytes,
            payload,
            inbox=self.inbox_name,
            tag=self._class_tags[self._class_of[consumer]],
        )
