"""Per-node software cache of fetched remote blocks (opt-in).

The PGAS-compiler line of work gets large wins from caching remote
blocks of irregular accesses close to the reader. This module is the
simulated equivalent: a bounded per-node map from ``(array, lo, hi)``
to the bytes a previous :meth:`~repro.ga.runtime.GlobalArrays.fetch`
brought over the wire. A hit skips the request/reply round trip and the
owner-side service entirely; only the requester's local memory landing
cost remains.

Invalidation is by *write epochs*: every :class:`GlobalArray` mutation
(accumulate, scatter, zero) logs its range against a monotonic counter
(:meth:`GlobalArray.record_write`). An entry remembers the epoch its
bytes were valid at; a lookup revalidates by asking the array whether
any later write overlapped the block's range (`modified_since`), and
evicts on overlap. Epochs older than the array's compacted log history
count as modified, so stale reads are impossible by construction — the
cache can only ever under-perform, never return old data.

Everything here is host-side bookkeeping: no simulated time passes in
``lookup``/``insert``, and SYNTH-mode entries carry ``None`` payloads
so REAL and SYNTH runs hit and miss identically. A cached block *is* the
read-only snapshot the fetch returned (:mod:`repro.ga.array`) — a hit
hands the same array out again, nothing is copied in or out.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ga.array import GlobalArray
from repro.util.errors import ConfigurationError

__all__ = ["RemoteBlockCache", "RemoteCachePolicy"]


@dataclass(frozen=True)
class RemoteCachePolicy:
    """Knobs for the per-node remote-block cache."""

    #: capacity in cached blocks per node (LRU eviction beyond it;
    #: 0 = a cache that holds nothing)
    max_blocks: int = 64

    def __post_init__(self) -> None:
        if not isinstance(self.max_blocks, int) or self.max_blocks < 0:
            raise ConfigurationError(
                "RemoteCachePolicy.max_blocks must be an int >= 0, "
                f"got {self.max_blocks!r}"
            )


class RemoteBlockCache:
    """Bounded LRU of ``(array handle, lo, hi)`` -> fetched block."""

    def __init__(self, policy: RemoteCachePolicy) -> None:
        self.policy = policy
        # key -> [epoch, data]; insertion/move order is the LRU order
        self._entries: OrderedDict[tuple[int, int, int], list] = OrderedDict()
        # statistics
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self, array: GlobalArray, lo: int, hi: int
    ) -> tuple[bool, Optional[np.ndarray]]:
        """``(hit, data)`` for the exact block ``[lo, hi)``.

        Revalidates against the array's write log: an entry that any
        later write overlapped is evicted and reported as a miss. On a
        hit the entry's epoch advances to "now" (the check just proved
        no overlapping write happened in between) and the entry moves
        to most-recently-used.
        """
        key = (array.handle, lo, hi)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return False, None
        if array.modified_since(entry[0], lo, hi):
            del self._entries[key]
            self.invalidations += 1
            self.misses += 1
            return False, None
        entry[0] = array.write_epoch
        self._entries.move_to_end(key)
        self.hits += 1
        return True, entry[1]

    def forget(self, handle: int) -> None:
        """Drop every block of the array with this handle: it is gone,
        and the snapshots cached here must not outlive it."""
        for key in [key for key in self._entries if key[0] == handle]:
            del self._entries[key]

    def insert(
        self,
        array: GlobalArray,
        lo: int,
        hi: int,
        epoch: int,
        data: Optional[np.ndarray],
    ) -> None:
        """Remember a fetched block, evicting LRU past capacity.

        ``epoch`` must be the array's write epoch captured *before* the
        fetch was issued: the owner read the data no earlier than that,
        so claiming the older epoch can only cause a false invalidation
        later — never a stale hit.
        """
        if self.policy.max_blocks <= 0:
            return
        key = (array.handle, lo, hi)
        self._entries[key] = [epoch, data]
        self._entries.move_to_end(key)
        while len(self._entries) > self.policy.max_blocks:
            self._entries.popitem(last=False)
