"""The GlobalArray object: distributed storage with local-access views.

In ``DataMode.REAL`` each node's segment is a real NumPy array living in
that node's (simulated) memory; ``ga_access`` hands out views exactly
like the real library does — local data only. In ``DataMode.SYNTH`` no
storage is allocated and data-returning calls yield ``None``; every
simulated cost stays identical.

One rule for the data plane: **what a read hands out is a read-only
snapshot, and the array never writes through one.** A read of a range
inside one owner segment returns a ``writeable=False`` view of that
segment and marks the segment shared; every mutator takes ownership of a
shared segment first (:meth:`GlobalArray._own`: replace it by a copy,
clear the mark), so a view in flight keeps exactly the bytes a copy taken
at read time would have had. A range that straddles owners is assembled
once into a fresh read-only array.
"""

from __future__ import annotations

import bisect
from typing import Optional

import numpy as np

from repro.ga.distribution import Distribution, Segment
from repro.sim.cluster import DataMode
from repro.util.errors import GlobalArrayError

__all__ = ["GlobalArray", "assemble"]

#: Write-log compaction threshold: past this many entries the oldest
#: half is dropped and the base epoch advances, so cache validation
#: treats anything older than the surviving history as stale.
_WRITE_LOG_MAX = 1024


def assemble(chunks: list[np.ndarray]) -> np.ndarray:
    """One read-only array out of a range's per-owner snapshots: the
    snapshot itself when one owner holds the range, else one concatenation."""
    if len(chunks) == 1:
        return chunks[0]
    out = np.concatenate(chunks) if chunks else np.empty(0)
    out.flags.writeable = False
    return out


class GlobalArray:
    """A one-dimensional distributed array of float64.

    Created through :meth:`repro.ga.runtime.GlobalArrays.create`; do not
    instantiate directly. Element ranges use half-open ``[lo, hi)``
    indexing throughout.
    """

    def __init__(
        self,
        handle: int,
        name: str,
        total: int,
        distribution: Distribution,
        data_mode: DataMode,
    ) -> None:
        self.handle = handle
        self.name = name
        self.total = total
        self.distribution = distribution
        self.data_mode = data_mode
        #: the wire tags of the one-sided ops on this array, built once:
        #: a fault plan's ``message_fate`` and the coalescer read them
        self.tag_get = f"get:{name}"
        self.tag_get_reply = f"get.reply:{name}"
        self.tag_acc = f"acc:{name}"
        self.tag_acc_ack = f"acc.ack:{name}"
        # Ordered-accumulation mode (see enable_ordered_accumulation):
        # tagged contributions are logged here keyed by
        # (repr(tag), lo, hi) and applied in sorted-key order at the
        # next read. The dict keying also makes re-delivery of the same
        # contribution (task re-execution after a fault) idempotent.
        self._ordered = False
        self._pending: dict = {}
        # Write-epoch log (see record_write): disabled unless a
        # remote-block cache is attached to the owning runtime, so the
        # default path never pays the bookkeeping.
        self.track_writes = False
        self._writes: list[tuple[int, int]] = []
        self._writes_base = 0
        if data_mode is DataMode.REAL:
            self._segments: Optional[list[np.ndarray]] = [
                np.zeros(distribution.node_range(node)[1] - distribution.node_range(node)[0])
                for node in range(distribution.n_nodes)
            ]
        else:
            self._segments = None
        #: per owner: has a snapshot of the current segment been handed out?
        self._shared = [False] * distribution.n_nodes
        #: copy-on-write copies made so far (test bookkeeping, not a metric)
        self.segment_copies = 0

    @property
    def holds_data(self) -> bool:
        """True when real NumPy storage backs the array."""
        return self._segments is not None

    def nbytes(self, lo: int, hi: int) -> float:
        """Wire/memory size of the ``[lo, hi)`` range (float64 elements)."""
        return 8.0 * (hi - lo)

    # ------------------------------------------------------------------
    # write epochs (remote-block cache invalidation)
    # ------------------------------------------------------------------
    @property
    def write_epoch(self) -> int:
        """Monotonic count of recorded writes (never resets)."""
        return self._writes_base + len(self._writes)

    def record_write(self, lo: int, hi: int) -> None:
        """Log one write to ``[lo, hi)``; no-op unless ``track_writes``.

        Every mutator calls this at its *logical* write point — message
        delivery for accumulates, call time for scatter/zero — even in
        SYNTH mode and even when ordered accumulation defers the
        arithmetic, because a cached remote block goes stale the moment
        the contribution is owed, not when it is applied.
        """
        if not self.track_writes:
            return
        self._writes.append((lo, hi))
        if len(self._writes) > _WRITE_LOG_MAX:
            drop = len(self._writes) // 2
            del self._writes[:drop]
            self._writes_base += drop

    def modified_since(self, epoch: int, lo: int, hi: int) -> bool:
        """Did any recorded write overlap ``[lo, hi)`` after ``epoch``?

        Epochs older than the surviving (compacted) history count as
        modified — the conservative answer keeps stale reads impossible
        by construction.
        """
        if epoch < self._writes_base:
            return True
        for wlo, whi in self._writes[epoch - self._writes_base :]:
            if wlo < hi and lo < whi:
                return True
        return False

    # ------------------------------------------------------------------
    # snapshots and ownership (the one read path, the one write path)
    # ------------------------------------------------------------------
    def _snapshot(self, node: int, lo: int, hi: int) -> np.ndarray:
        """Read-only view of ``[lo, hi)`` inside ``node``'s segment; the
        segment is shared from here until its next writer copies it.

        The segment itself turns read-only when it becomes shared, once,
        and every view taken of it inherits the flag; :meth:`_own` hands
        the next writer a fresh, writable copy.
        """
        assert self._segments is not None
        segment = self._segments[node]
        if not self._shared[node]:
            segment.flags.writeable = False
            self._shared[node] = True
        node_lo = self.distribution._starts[node]
        return segment[lo - node_lo : hi - node_lo]

    def _own(self, node: int) -> np.ndarray:
        """``node``'s segment, safe to write: a segment some snapshot
        still points into is replaced by a private copy first."""
        assert self._segments is not None
        if self._shared[node]:
            self._segments[node] = self._segments[node].copy()
            self._shared[node] = False
            self.segment_copies += 1
        return self._segments[node]

    # ------------------------------------------------------------------
    # local access (what ga_access() allows)
    # ------------------------------------------------------------------
    def ga_access(self, node: int, lo: int, hi: int) -> np.ndarray:
        """Writable view of ``[lo, hi)``, which must lie entirely on ``node``.

        Mirrors ``ga_access()``: only locally-resident data may be
        touched this way; crossing a node boundary is an error. Like the
        library's pointer it is for use now, not for keeping: a read of
        the segment shares it, and the array's next write then goes to a
        copy this view no longer points into.
        """
        if self._segments is None:
            raise GlobalArrayError("ga_access() is unavailable in SYNTH data mode")
        node_lo, node_hi = self.distribution.node_range(node)
        if not (node_lo <= lo <= hi <= node_hi):
            raise GlobalArrayError(
                f"ga_access on node {node}: [{lo}, {hi}) not within local "
                f"range [{node_lo}, {node_hi})"
            )
        return self._own(node)[lo - node_lo : hi - node_lo]

    def read_segment(self, segment: Segment) -> Optional[np.ndarray]:
        """Snapshot of one owner segment's data (handler-side helper)."""
        if self._segments is None:
            return None
        self.flush_accumulations()
        return self._snapshot(*segment)

    # ------------------------------------------------------------------
    # direct range access (PaRSEC-side: data already local by placement)
    # ------------------------------------------------------------------
    def read_range_direct(self, lo: int, hi: int) -> Optional[np.ndarray]:
        """Snapshot of ``[lo, hi)`` regardless of owner boundaries, uncosted.

        Used by PaRSEC READ tasks, which are *placed on* the owner node
        (``find_last_segment_owner``) and touch the data through
        ``ga_access``-style local pointers; the simulated memory cost is
        charged by the task body, not here. Returns None in SYNTH mode.
        """
        if self._segments is None:
            return None
        if not (0 <= lo <= hi <= self.total):
            raise GlobalArrayError(f"range [{lo}, {hi}) out of bounds {self.total}")
        self.flush_accumulations()
        segments = self.distribution.segments(lo, hi)
        if len(segments) == 1:
            return self._snapshot(*segments[0])
        return assemble([self._snapshot(*s) for s in segments])

    def accumulate_range_direct(
        self, lo: int, hi: int, data: Optional[np.ndarray], tag=None
    ) -> None:
        """In-place ``array[lo:hi] += data`` across owners, uncosted.

        Used by PaRSEC WRITE_C task bodies, which run on the owner node
        under the node's write mutex, and by the GA owner handler for one
        owner's segment of a remote accumulate; the caller charges the
        memory traffic and mutex costs. No-op in SYNTH mode. With
        ordered accumulation enabled and a ``tag`` given, the
        contribution is logged instead of applied (see
        :meth:`enable_ordered_accumulation`).
        """
        self.record_write(lo, hi)
        if self._segments is None:
            return
        if data is None:
            raise GlobalArrayError("REAL-mode accumulate received no data")
        if not (0 <= lo <= hi <= self.total):
            raise GlobalArrayError(f"range [{lo}, {hi}) out of bounds {self.total}")
        if data.shape != (hi - lo,):
            raise GlobalArrayError(f"data shape {data.shape} != ({hi - lo},)")
        if self._ordered and tag is not None:
            self._log(tag, lo, hi, data)
            return
        self._apply_range(lo, hi, data)

    def _apply_range(self, lo: int, hi: int, data: np.ndarray) -> None:
        """Raw ``+=`` of a range its caller checked, across owner
        segments; a range inside one owner (the GA owner handler's) goes
        straight to that owner's segment."""
        if lo == hi:
            return
        starts = self.distribution._starts
        node = bisect.bisect_right(starts, lo) - 1
        if hi <= starts[node + 1]:
            self._own(node)[lo - starts[node] : hi - starts[node]] += data
            return
        for segment in self.distribution.segments(lo, hi):
            node_lo = starts[segment.node]
            local = self._own(segment.node)
            local[segment.lo - node_lo : segment.hi - node_lo] += data[
                segment.lo - lo : segment.hi - lo
            ]

    # ------------------------------------------------------------------
    # ordered accumulation (bitwise-reproducible mode)
    # ------------------------------------------------------------------
    def enable_ordered_accumulation(self) -> None:
        """Make tagged accumulates apply in a canonical order.

        Floating-point addition does not commute bitwise, so when
        overlapping accumulates race (which faults and scheduling both
        reorder), the result differs in the last bits from run to run.
        In ordered mode every *tagged* accumulate is logged under
        ``(repr(tag), lo, hi)`` and the log is applied in sorted-key
        order the next time the array is read — the same total order in
        every run, independent of delivery order. The dict log also
        deduplicates: re-executing a recovered task re-logs the same key
        rather than double-adding, giving exactly-once arithmetic.

        Untagged accumulates still apply immediately, so callers that
        never pass tags are unaffected. Timing is unchanged either way —
        these methods were never cost-modeled.
        """
        self._ordered = True

    def _log(self, tag, lo: int, hi: int, data: np.ndarray) -> None:
        self._pending[(repr(tag), lo, hi)] = np.array(data, copy=True)

    def flush_accumulations(self) -> None:
        """Apply the ordered-accumulation log in canonical key order."""
        if not self._pending:
            return
        for key in sorted(self._pending):
            _, lo, hi = key
            self._apply_range(lo, hi, self._pending[key])
        self._pending.clear()

    # ------------------------------------------------------------------
    # whole-array conveniences (test/setup only — not cost-modeled)
    # ------------------------------------------------------------------
    def gather(self) -> np.ndarray:
        """Copy of the whole array contents (testing convenience)."""
        if self._segments is None:
            raise GlobalArrayError("gather() is unavailable in SYNTH data mode")
        self.flush_accumulations()
        return np.concatenate([seg for seg in self._segments]) if self.total else np.zeros(0)

    def scatter(self, values: np.ndarray) -> None:
        """Overwrite the whole array contents (setup convenience)."""
        self.record_write(0, self.total)
        if self._segments is None:
            return
        if values.shape != (self.total,):
            raise GlobalArrayError(
                f"scatter expects shape ({self.total},), got {values.shape}"
            )
        for node in range(self.distribution.n_nodes):
            lo, hi = self.distribution.node_range(node)
            self._own(node)[:] = values[lo:hi]

    def adopt(self, values: np.ndarray) -> None:
        """Take ``values`` as the whole contents without copying them.

        Each owner segment becomes a read-only view of ``values`` and is
        marked shared, so the first write to it copies (:meth:`_own`) and
        ``values`` itself is never written: one array may back the inputs
        of every run that draws the same data. Logged as a write, like
        :meth:`scatter`.
        """
        self.record_write(0, self.total)
        if self._segments is None:
            return
        if values.shape != (self.total,):
            raise GlobalArrayError(
                f"adopt expects shape ({self.total},), got {values.shape}"
            )
        for node in range(self.distribution.n_nodes):
            lo, hi = self.distribution.node_range(node)
            view = values[lo:hi]
            view.flags.writeable = False
            self._segments[node] = view
            self._shared[node] = True

    def zero(self) -> None:
        """Reset every element to zero (setup convenience)."""
        self.record_write(0, self.total)
        if self._segments is None:
            return
        for node in range(self.distribution.n_nodes):
            self._own(node)[:] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GlobalArray({self.name!r}, n={self.total}, mode={self.data_mode.value})"
