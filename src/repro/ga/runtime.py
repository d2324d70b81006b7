"""The Global Arrays runtime: per-node handlers and one-sided ops.

Every node serves a single *GA handler* (the stand-in for the library's
progress engine). One-sided ``get``/``acc`` requests travel over the
simulated network to the owner's handler, which serializes them FIFO,
pays a per-request software overhead, moves the touched bytes through
the owner's shared memory bandwidth, and replies. The
caller blocks until all segment replies (a range may straddle owners)
have arrived — the semantics ``GET_HASH_BLOCK``/``ADD_HASH_BLOCK``
expose to the TCE code.

This is deliberately the *contended* path: when 32·c legacy ranks all
issue blocking gets, the FIFO handlers and the shared bandwidth produce
the saturation the paper's Figure 9 shows for the original code.
"""

from __future__ import annotations

import itertools
import weakref
from functools import partial
from typing import Optional

import numpy as np

from repro.ga.array import GlobalArray, assemble
from repro.ga.cache import RemoteBlockCache, RemoteCachePolicy
from repro.ga.distribution import Distribution, Segment
from repro.sim.cluster import Cluster
from repro.sim.engine import SimEvent, all_of
from repro.sim.network import BatchPayload, CoalescePolicy, Coalescer
from repro.util.errors import GlobalArrayError

__all__ = ["GlobalArrays"]

#: Size of a request header / ack message on the wire.
_CTRL_BYTES = 64.0


class _Request:
    """One segment-granular request sitting in a handler inbox."""

    __slots__ = ("kind", "array", "segment", "data", "requester", "reply_event", "tag")

    def __init__(
        self,
        kind: str,
        array: GlobalArray,
        segment: Segment,
        data: Optional[np.ndarray],
        requester: int,
        reply_event: SimEvent,
        tag=None,
    ) -> None:
        self.kind = kind
        self.array = array
        self.segment = segment
        self.data = data
        self.requester = requester
        self.reply_event = reply_event
        self.tag = tag

    def reply(self, message) -> None:
        """``on_deliver`` of the answer: wake the requester with the data."""
        self.reply_event.succeed(message.take())


def _forget_array(caches: list[RemoteBlockCache], handle: int) -> None:
    for cache in caches:
        cache.forget(handle)


_GA_SERIES = {
    "ga.gets": "gets",
    "ga.get_bytes": ("bytes_fetched", lambda ga: ga.gets - ga.cache_hits),
    "ga.accs": "accs",
    "ga.cache.hits": "cache_hits",
    "ga.cache.misses": "cache_misses",
    "ga.cache.bytes_saved": ("cache_bytes_saved", "cache_hits"),
}


def _deliver_batch_reply(message) -> None:
    for event, chunk in message.take():
        event.succeed(chunk)


class GlobalArrays:
    """Factory for distributed arrays plus the one-sided operation API.

    All data-moving methods are *generator helpers*: call them from a
    simulated process with ``yield from``. They return the fetched NumPy
    data (REAL mode) or ``None`` (SYNTH mode).
    """

    INBOX = "ga.req"

    def __init__(
        self,
        cluster: Cluster,
        coalescing: Optional[CoalescePolicy] = None,
        remote_cache: Optional[RemoteCachePolicy] = None,
    ) -> None:
        self.cluster = cluster
        self.engine = cluster.engine
        self.machine = cluster.machine
        self.metrics = metrics = cluster.metrics
        self._m_acc_bytes = metrics.counter("ga.acc_bytes")
        self._m_get_sizes = metrics.histogram("ga.request_bytes", op="get")
        self._m_acc_sizes = metrics.histogram("ga.request_bytes", op="acc")
        self._handles = itertools.count(1)
        # name -> array, without owning it: the handlers below reach this
        # object, the engine reaches the handlers, so a strong table would
        # tie every tensor's lifetime to the cluster's reference cycle. An
        # array lives exactly as long as whoever created it keeps it.
        self._arrays: weakref.WeakValueDictionary[str, GlobalArray] = (
            weakref.WeakValueDictionary()
        )
        if cluster.ga is None:
            # one handler per node, whichever GlobalArrays on the cluster
            # opens it: its hooks read only the cluster
            for node in cluster.nodes:
                node.serve(self.INBOX, self._service, partial(self._handle, node))
        # where a layer that knows only the cluster resolves tensor names
        cluster.ga = self
        # comm-optimization knobs (both default off — byte-identical to
        # a build without them). Off is a pass-through coalescer but NO
        # cache: even an empty cache logs write epochs and emits
        # ``ga.cache.misses``
        self.coalescing = coalescing
        self.remote_cache = remote_cache
        self._coalescers = [
            Coalescer(
                cluster.network,
                node.node_id,
                coalescing,
                inbox=self.INBOX,
                batch_tag="get.batch",
            )
            for node in cluster.nodes
        ]
        self._caches: Optional[list[RemoteBlockCache]] = None
        if remote_cache is not None:
            self._caches = [RemoteBlockCache() for _ in cluster.nodes]
        # statistics
        self.gets = 0
        self.accs = 0
        self.bytes_fetched = 0.0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_bytes_saved = 0.0
        metrics.collect(self, _GA_SERIES)

    @property
    def coalesced_batches(self) -> int:
        """Wire messages that carried more than one GA request."""
        return sum(c.batches for c in self._coalescers)

    @property
    def messages_saved(self) -> int:
        """Request messages that merged into another wire message."""
        return sum(c.messages_saved for c in self._coalescers)

    # ------------------------------------------------------------------
    # array lifecycle
    # ------------------------------------------------------------------
    def create(self, name: str, total: int) -> GlobalArray:
        """Collectively create a distributed array of ``total`` float64s."""
        if name in self._arrays:
            raise GlobalArrayError(f"array name {name!r} already in use")
        array = GlobalArray(
            handle=next(self._handles),
            name=name,
            total=total,
            distribution=Distribution(total, self.cluster.n_nodes),
            data_mode=self.cluster.data_mode,
        )
        if self._caches is not None:
            # cache validation needs the array's write-epoch log
            array.track_writes = True
            # the caches belong to the cluster's cycle, the array to its
            # workload: cached snapshots go when the array goes
            weakref.finalize(
                array, _forget_array, self._caches, array.handle
            ).atexit = False
        self._arrays[name] = array
        return array

    def lookup(self, name: str) -> GlobalArray:
        """Find an existing array by name."""
        try:
            return self._arrays[name]
        except KeyError:
            raise GlobalArrayError(f"no array named {name!r}") from None

    # ------------------------------------------------------------------
    # one-sided operations (generator helpers)
    # ------------------------------------------------------------------
    def fetch(self, requester: int, array: GlobalArray, lo: int, hi: int):
        """Blocking one-sided get of ``[lo, hi)``; returns the data.

        Issues one request per owner segment, waits for every reply,
        then pays the requester-side cost of landing the bytes in local
        memory. Returns a contiguous read-only float64 snapshot (REAL) —
        a view of the owner's segment when one owner holds the range —
        or None.

        With the remote-block cache enabled a range that touches remote
        memory may be served from the requester's cache (no wire
        traffic, only the local landing cost); with coalescing enabled
        the per-segment requests leave through the node's aggregation
        window instead of as individual sends.
        """
        segments = array.distribution.segments(lo, hi)
        self.gets += 1
        nbytes = array.nbytes(lo, hi)
        cache = None
        epoch = 0
        if self._caches is not None and any(s.node != requester for s in segments):
            # purely-local ranges skip the cache: they never hit the
            # wire, so there is nothing to save
            cache = self._caches[requester]
            epoch = array.write_epoch
            hit, data = cache.lookup(array, lo, hi)
            if hit:
                self.cache_hits += 1
                self.cache_bytes_saved += nbytes
                # same flush point a real owner-side read would have
                array.flush_accumulations()
                if nbytes > 0:
                    yield self.cluster.nodes[requester].membw.transfer(nbytes)
                return data
            self.cache_misses += 1
        self.bytes_fetched += nbytes
        if self.metrics.enabled:
            self._m_get_sizes.observe(nbytes)
        coalescer = self._coalescers[requester]
        events = []
        for segment in segments:
            event = self.engine.event()
            request = _Request("get", array, segment, None, requester, event)
            coalescer.submit(
                segment.node, _CTRL_BYTES, request, tag=array.tag_get
            )
            events.append(event)
        replies = yield all_of(self.engine, events)
        if nbytes > 0:
            # land the received bytes in the requester's memory
            yield self.cluster.nodes[requester].membw.transfer(nbytes)
        if not self.cluster.real:
            if cache is not None:
                cache.insert(array, lo, hi, epoch, None)
            return None
        out = assemble(replies)
        if cache is not None:
            cache.insert(array, lo, hi, epoch, out)
        return out

    def accumulate(
        self,
        requester: int,
        array: GlobalArray,
        lo: int,
        hi: int,
        data: Optional[np.ndarray],
        tag=None,
    ):
        """Blocking one-sided accumulate: ``array[lo:hi] += data``.

        Atomic per element — the owner's FIFO handler serializes
        concurrent accumulates into the same node. Waits for all acks.
        ``tag`` (an identity for this logical contribution) is forwarded
        to the array for ordered-accumulation mode.
        """
        if self.cluster.real:
            if data is None:
                raise GlobalArrayError("REAL-mode accumulate requires data")
            if data.shape != (hi - lo,):
                raise GlobalArrayError(
                    f"accumulate data shape {data.shape} != ({hi - lo},)"
                )
        segments = array.distribution.segments(lo, hi)
        self.accs += 1
        nbytes = array.nbytes(lo, hi)
        if self.metrics.enabled:
            self._m_acc_bytes.value += nbytes
            self._m_acc_sizes.observe(nbytes)
        if nbytes > 0:
            # read the outgoing buffer from requester memory
            yield self.cluster.nodes[requester].membw.transfer(nbytes)
        events = []
        for segment in segments:
            event = self.engine.event()
            chunk = None
            if data is not None:
                chunk = data[segment.lo - lo : segment.hi - lo]
            request = _Request("acc", array, segment, chunk, requester, event, tag=tag)
            self.cluster.network.send(
                requester,
                segment.node,
                _CTRL_BYTES + 8.0 * segment.size,
                request,
                inbox=self.INBOX,
                tag=array.tag_acc,
            )
            events.append(event)
        yield all_of(self.engine, events)

    # ------------------------------------------------------------------
    # the per-node handler: the hooks of each node's ``ga.req`` server
    # ------------------------------------------------------------------
    def _service(self, message) -> tuple[float, float]:
        # fixed software overhead plus the effective one-sided serving
        # rate of the GA path (well below NIC line rate), then the owner
        # memory a get reads or an accumulate reads twice and writes.
        # This single server per node is the contention point that caps
        # the original code's scaling in the Figure 9 reproduction.
        request = message.payload
        if type(request) is BatchPayload:
            # a batch in service is its requests and the replies so far
            request = message.payload = (request.items, [])
        if type(request) is tuple:
            requests, replies = request
            request = requests[len(replies)]
        seg_bytes = 8.0 * request.segment.size
        machine = self.machine
        return (
            machine.ga_request_overhead_s + seg_bytes / machine.ga_service_bytes_per_s,
            seg_bytes if request.kind == "get" else 3.0 * seg_bytes,
        )

    def _handle(self, node, message) -> bool:
        """Answer the request just served; True while a batch has more."""
        network = self.cluster.network
        if type(message.payload) is tuple:
            # a coalesced request batch: each segment request is served
            # FIFO (full per-request overhead and memory traffic —
            # coalescing saves wire messages, not owner work), then
            # answered with ONE combined reply message
            requests, replies = message.payload
            request = requests[len(replies)]
            replies.append(
                (request.reply_event, request.array.read_segment(request.segment))
            )
            if len(replies) < len(requests):
                return True
            message.take()
            network.send(
                node.node_id,
                message.src,
                sum(8.0 * r.segment.size for r in requests),
                replies,
                tag="get.reply.batch",
                on_deliver=_deliver_batch_reply,
            )
            return False
        request: _Request = message.take()
        segment = request.segment
        if request.kind == "get":
            network.send(
                node.node_id,
                request.requester,
                8.0 * segment.size,
                request.array.read_segment(segment),
                tag=request.array.tag_get_reply,
                on_deliver=request.reply,
            )
        elif request.kind == "acc":
            request.array.accumulate_range_direct(
                segment.lo, segment.hi, request.data, tag=request.tag
            )
            network.send(
                node.node_id,
                request.requester,
                _CTRL_BYTES,
                None,
                tag=request.array.tag_acc_ack,
                on_deliver=request.reply,
            )
        else:  # pragma: no cover - defensive
            raise GlobalArrayError(f"unknown GA request kind {request.kind!r}")
        return False
