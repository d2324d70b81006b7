"""NXTVAL: the shared-counter work-stealing primitive.

The original TCE code load-balances by having every rank atomically
fetch-and-increment one global counter per unit of work ("NXTVAL",
Section IV-D). The counter lives on a single home node; every increment
is a remote read-modify-write serialized by that node's counter server.
With 32·c ranks each paying a round trip plus queueing at one server,
the overhead grows with scale — the paper's argument for replacing it
with static round-robin distribution in the PaRSEC version.
"""

from __future__ import annotations

import itertools
from collections import deque

from repro.sim.engine import SimEvent

__all__ = ["NxtvalServer"]

_REQ_BYTES = 32.0
_REPLY_BYTES = 32.0

_instance_ids = itertools.count()


class NxtvalServer:
    """Fetch-and-increment counter served FIFO at a home node.

    Each counter owns a distinct mailbox with a FIFO server on it: the
    original code uses a fresh shared counter per work level, and
    concurrent counters must not steal each other's requests.
    """

    def __init__(self, ga_runtime, home_node: int = 0) -> None:
        self.ga = ga_runtime
        self.engine = ga_runtime.engine
        self.machine = ga_runtime.machine
        self.home_node = home_node
        self.inbox_name = f"ga.nxtval#{next(_instance_ids)}"
        self._counter = 0
        #: tickets handed back by crash recovery, served before fresh
        #: counter values so orphaned work units are re-claimed
        self._reissued: deque[int] = deque()
        self.total_requests = 0
        ga_runtime.metrics.collect(self, {"nxtval.requests": "total_requests"})
        charge = (self.machine.nxtval_service_s, 0.0)
        ga_runtime.cluster.nodes[home_node].serve(
            self.inbox_name, lambda _message: charge, self._on_request
        )

    def close(self) -> None:
        """The level is over: remove the counter's mailbox from its home
        node (an unserved request there is an error)."""
        self.ga.cluster.nodes[self.home_node].drop_inbox(self.inbox_name)
        self.ga.metrics.release(self)

    def reissue(self, ticket: int) -> None:
        """Hand a ticket back to the pool (crash recovery).

        A rank that died after claiming ``ticket`` but before completing
        (committing) the corresponding work unit returns it here; the
        server serves reissued tickets before fresh counter values, so a
        survivor picks the orphan up on its next NXTVAL call.
        """
        self._reissued.append(ticket)

    def next(self, requester: int):
        """Generator helper: atomically fetch-and-increment; returns the ticket.

        Charges the caller-side issue overhead, then blocks for the
        round trip and the (possibly queued) service at the home node.
        """
        self.total_requests += 1
        yield self.engine.timeout(self.machine.nxtval_issue_s)
        reply: SimEvent = self.engine.event()
        self.ga.cluster.network.send(
            requester,
            self.home_node,
            _REQ_BYTES,
            reply,
            inbox=self.inbox_name,
            tag="nxtval",
        )
        ticket = yield reply
        return ticket

    def _on_request(self, message) -> None:
        """One request served: reply with the next ticket."""
        if self._reissued:
            ticket = self._reissued.popleft()
        else:
            ticket = self._counter
            self._counter += 1
        self.ga.cluster.network.send(
            self.home_node,
            message.src,
            _REPLY_BYTES,
            ticket,
            tag="nxtval.reply",
            on_deliver=lambda msg, ev=message.take(): ev.succeed(msg.payload),
        )
