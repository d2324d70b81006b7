"""Channels and ready-queues for simulated threads.

:class:`Store` is an unbounded FIFO channel: producers never block,
consumers ``yield store.get()``. :class:`LifoStore` and
:class:`RankStore` are the same channel with a different item order;
:class:`RankStore` hands out small ints (task numbers) highest priority
first, ties broken FIFO, matching PaRSEC's rule that priorities "only
have a relative meaning" — between two available tasks the
higher-priority one executes first. A priority is given as its rank
among the distinct priorities, and a queued item is one int (the PTG's
and DTD's ready queues).

Blocked consumers park on a :class:`~repro.sim.engine.WaitQueue`, so a
consumer killed while parked (fault injection) is skipped by ``put()``
rather than fed an item that would be silently lost.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any

from repro.sim.engine import Engine, SimEvent, WaitQueue
from repro.util.errors import SimulationError

__all__ = ["Store", "LifoStore", "RankStore"]

#: Bits of a :class:`RankStore` key that hold the insertion number: a
#: store lives for one PTG or DTD level, whose puts are far fewer.
_SEQ_BITS = 32


class Store:
    """Unbounded FIFO channel between simulated threads.

    Subclasses change the service order by overriding the three item
    hooks (:meth:`_new_items`, :meth:`_push`, :meth:`_pop`); everything
    a producer or consumer calls is shared.
    """

    def __init__(self, engine: Engine, name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._items = self._new_items()
        self._getters = WaitQueue(engine)

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any, rank: int = 0) -> None:
        """Deposit ``item``; wakes the oldest *live* waiting getter if any.

        ``rank`` orders items in a :class:`RankStore` and is ignored by
        the FIFO and LIFO disciplines.
        """
        getters = self._getters
        if not getters or getters.wake_one(item) is None:
            self._push(item, rank)

    def get(self) -> SimEvent:
        """Event that fires with the next item (immediately if available)."""
        if self._items:
            event = SimEvent(self.engine)  # direct: skips the event() frame
            event.succeed(self._pop())
            return event
        return self._getters.park()

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking pop: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._pop()
        return False, None

    def abandon_getters(self) -> int:
        """Invalidate all pending getters (crashed consumers); returns
        how many were live."""
        return self._getters.abandon_all()

    # -- service order: FIFO ---------------------------------------------
    def _new_items(self) -> Any:
        return deque()

    def _push(self, item: Any, rank: int) -> None:
        self._items.append(item)

    def _pop(self) -> Any:
        return self._items.popleft()


class LifoStore(Store):
    """Channel that yields the most recently deposited item first.

    The classic locality-oriented scheduling discipline: the newest
    ready task's data is the hottest in cache.
    """

    def _new_items(self) -> Any:
        return []

    def _pop(self) -> Any:
        return self._items.pop()


class RankStore(Store):
    """Channel of ints in ``range(span)`` that yields the lowest-ranked
    item first, ties broken FIFO: highest priority first, with the
    priority given as its rank among the distinct priorities (0 = the
    highest), so ``put(item, rank)``.

    A queued item is one int: rank, insertion number and item packed
    most significant first, so the heap compares plain ints and pops the
    same order a ``(-priority, seq, item)`` tuple would, without the
    tuple, the negated float and the sequence int per entry.
    """

    def __init__(self, engine: Engine, span: int, name: str = "") -> None:
        super().__init__(engine, name)
        self._item_bits = max(span - 1, 0).bit_length()
        self._item_mask = (1 << self._item_bits) - 1
        self._seq = 0

    def _new_items(self) -> Any:
        return []  # a heap of packed (rank, seq, item) ints

    def _push(self, item: Any, rank: int) -> None:
        seq = self._seq
        if seq >> _SEQ_BITS:
            raise SimulationError(f"store {self.name!r} overran {_SEQ_BITS}-bit seq")
        self._seq = seq + 1
        heapq.heappush(
            self._items, (((rank << _SEQ_BITS) | seq) << self._item_bits) | item
        )

    def _pop(self) -> Any:
        return heapq.heappop(self._items) & self._item_mask
