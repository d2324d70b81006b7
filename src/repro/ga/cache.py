"""Per-node software cache of fetched remote blocks (opt-in).

The PGAS-compiler line of work gets large wins from caching remote
blocks of irregular accesses close to the reader. This module is the
simulated equivalent: a per-node map from ``(array, lo, hi)`` to the
bytes a previous :meth:`~repro.ga.runtime.GlobalArrays.fetch` brought
over the wire, bounded at :data:`MAX_BLOCKS` blocks per node with the
least recently used evicted first. ``RemoteCachePolicy()`` turns it on
and carries no settings. A hit skips the request/reply round trip and the
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

__all__ = ["RemoteBlockCache", "RemoteCachePolicy"]


#: capacity in cached blocks per node (LRU eviction beyond it)
MAX_BLOCKS = 64


@dataclass(frozen=True)
class RemoteCachePolicy:
    """Turns the per-node remote-block cache on:
    ``remote_cache=RemoteCachePolicy()`` (``None`` = every remote fetch
    crosses the wire). It carries no settings."""


class RemoteBlockCache:
    """Bounded LRU of ``(array handle, lo, hi)`` -> fetched block,
    at most :data:`MAX_BLOCKS` of them."""

    def __init__(self) -> None:
        # key -> [epoch, data]; insertion/move order is the LRU order
        self._entries: OrderedDict[tuple[int, int, int], list] = OrderedDict()
        #: entries a later overlapping write evicted at lookup
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
            return False, None
        if array.modified_since(entry[0], lo, hi):
            del self._entries[key]
            self.invalidations += 1
            return False, None
        entry[0] = array.write_epoch
        self._entries.move_to_end(key)
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
        key = (array.handle, lo, hi)
        self._entries[key] = [epoch, data]
        self._entries.move_to_end(key)
        while len(self._entries) > MAX_BLOCKS:
            self._entries.popitem(last=False)
