"""Element-contiguous distribution of a flat global array across nodes.

Global Arrays distributes a one-dimensional array as contiguous element
ranges, one per node (nodes beyond the array length own empty ranges).
A logical *block* (a tensor tile) therefore may straddle node
boundaries — which is exactly why the paper's Figure 8 needs multiple
``WRITE_C(i)`` task instances per chain output, one per owner node, and
why the PTG of Figure 1 calls ``find_last_segment_owner`` to pick the
node a READ task runs on.
"""

from __future__ import annotations

import bisect
from typing import NamedTuple

from repro.util.errors import GlobalArrayError

__all__ = ["Segment", "Distribution"]


class Segment(NamedTuple):
    """A maximal sub-range ``[lo, hi)`` owned by one node.

    A plain value (a tuple): a block read splits its range into these on
    every call, and :class:`Distribution` only ever makes ``lo <= hi``.
    """

    node: int
    lo: int
    hi: int

    @property
    def size(self) -> int:
        return self.hi - self.lo


class Distribution:
    """Partition of ``[0, total)`` into contiguous per-node ranges.

    The default split gives each node ``ceil`` or ``floor`` of the even
    share, earlier nodes getting the larger pieces — the Global Arrays
    regular distribution.
    """

    def __init__(self, total: int, n_nodes: int) -> None:
        if total < 0:
            raise GlobalArrayError(f"array size must be >= 0, got {total}")
        if n_nodes < 1:
            raise GlobalArrayError(f"need >= 1 node, got {n_nodes}")
        self.total = total
        self.n_nodes = n_nodes
        base, extra = divmod(total, n_nodes)
        self._starts: list[int] = [0]
        for node in range(n_nodes):
            share = base + (1 if node < extra else 0)
            self._starts.append(self._starts[-1] + share)

    def node_range(self, node: int) -> tuple[int, int]:
        """The ``[lo, hi)`` range owned by ``node`` (may be empty)."""
        if not 0 <= node < self.n_nodes:
            raise GlobalArrayError(f"node {node} out of range 0..{self.n_nodes - 1}")
        return self._starts[node], self._starts[node + 1]

    def owner_of(self, index: int) -> int:
        """Node owning element ``index``."""
        if not 0 <= index < self.total:
            raise GlobalArrayError(f"index {index} out of array bounds {self.total}")
        return bisect.bisect_right(self._starts, index) - 1

    def segments(self, lo: int, hi: int) -> list[Segment]:
        """Split ``[lo, hi)`` into maximal per-owner segments, in order."""
        if not (0 <= lo <= hi <= self.total):
            raise GlobalArrayError(
                f"range [{lo}, {hi}) out of array bounds [0, {self.total})"
            )
        if lo == hi:
            return []
        starts = self._starts
        node = bisect.bisect_right(starts, lo) - 1  # owner_of(lo), in bounds
        if hi <= starts[node + 1]:
            return [Segment(node, lo, hi)]  # one owner: most block reads
        out: list[Segment] = []
        cursor = lo
        while cursor < hi:
            node_hi = starts[node + 1]
            upper = min(hi, node_hi)
            if upper > cursor:
                out.append(Segment(node, cursor, upper))
            cursor = upper
            node += 1
        return out

    def last_segment_owner(self, lo: int, hi: int) -> int:
        """Node owning the last element of ``[lo, hi)``.

        This mirrors the ``find_last_segment_owner`` metadata lookup in
        the paper's GEMM PTG (Figure 1): when a block straddles nodes,
        its READ task is placed on the node holding the block's tail.
        """
        if hi <= lo:
            raise GlobalArrayError(f"empty range [{lo}, {hi}) has no owner")
        return self.owner_of(hi - 1)

    def distribution(self) -> list[Segment]:
        """All non-empty per-node ranges — the ``ga_distribution()`` query."""
        out = []
        for node in range(self.n_nodes):
            lo, hi = self.node_range(node)
            if hi > lo:
                out.append(Segment(node, lo, hi))
        return out
