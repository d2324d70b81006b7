"""The one timed event store: a heap of ``(time, seq, timer)`` rows.

Every event that fires at a *later* virtual time — a task's compute
charge, a message's wire latency, a bandwidth wakeup, a coalescer flush,
a crash — is a :class:`Timer` with one row in the :class:`Timeline`
heap. (Events that fire *now* go through the engine's immediate lane
instead; see ``engine.py``.) There is one row layout, one stale rule,
one lazy shed and one compaction.

Sequence contract (DESIGN.md §6)
--------------------------------
A row's sequence number is drawn from the engine's shared counter when
the timer is armed, and rows drain in ``(time, seq)`` order; tuple
comparison never reaches the timer because that pair is unique. What
happens at fire time depends on the timer's mode:

- *resumed* (``Engine.timeout``, ``Timeline.timer``): the continuation
  parked by ``yield`` is resumed **through the immediate lane**, which
  draws one more sequence number at fire time;
- *direct* (``Engine.schedule``): the callback runs straight from the
  drain slot and draws nothing.

The golden ``sim`` digests pin these draw points: moving one reorders
same-instant events.

In-place rule: a resumed timer always draws its fire-time number, but
when the lane is empty and the next live row lies strictly later than
now, ``Engine.run`` calls the continuation at once instead of appending
the lane entry. That entry would carry the largest stamp drawn so far;
every lane entry sorts before every later row and nothing else is queued
at this instant, so it is exactly the entry the loop would run next.
Skipping the hop therefore changes no order and no later draw.

Cancellation is lazy. ``cancel()`` only clears the timer's armed
sequence number; the row stays in the heap until it reaches the head
(shed) or until stale rows outnumber live ones (compaction). A row is
stale iff ``row.seq != timer.armed`` — which also covers a timer that
was cancelled and re-armed while its old row was still queued.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.util.errors import SimulationError

__all__ = ["Timeline", "Timer", "KIND_TASK"]

#: Owner label accepted by :meth:`Timeline.timer`. Nothing reads it; it
#: stays only because ``benchmarks/host/probes.py`` still passes it.
KIND_TASK = "task"

# timer modes: how a fired timer delivers
_RESUME = 0  # resume the parked continuation through the lane
_DIRECT = 1  # call the callback from the drain slot
_POOLED = 2  # _RESUME, then return the timer to the engine's pool

#: Compaction only kicks in past this many stale rows: tiny heaps are
#: cheap to shed lazily, and the threshold avoids O(n) rebuild churn
#: when a short simulation cancels its only few timers.
_COMPACT_MIN = 64

_INF = float("inf")
_heappush = heapq.heappush


def bad_delay(delay: float) -> SimulationError:
    """The error for a delay that fails ``0.0 <= delay < inf``, the check
    every arming site makes: :meth:`Timer.after` and the sites that push
    their row inline (``Engine.timeout``, the bandwidth wakeup)."""
    return SimulationError(f"timer delay must be finite and >= 0, got {delay}")


class Timer:
    """A waitable, cancellable handle on at most one pending row.

    ``yield timer.after(delay)`` parks the calling process until the
    row fires; the process resumes with ``None``. A timer may be armed
    again once it has fired or been cancelled, so a serial owner (a
    worker, a comm thread, a bandwidth server) keeps one for life.
    """

    __slots__ = ("_engine", "_timeline", "armed", "_cb", "_mode")

    def __init__(
        self,
        timeline: "Timeline",
        callback: Optional[Callable[[], None]] = None,
        pooled: bool = False,
    ) -> None:
        """With ``callback``, a direct timer that calls it at fire time;
        without, a timer that resumes whoever ``yield``-ed it.
        ``pooled`` is for :meth:`Engine.timeout`'s recycled one-shots."""
        self._engine = timeline._engine
        self._timeline = timeline
        #: sequence number of the live row, -1 when not armed
        self.armed = -1
        #: parked continuation (resumed modes) or the callback (direct)
        self._cb: Any = callback
        if callback is not None:
            self._mode = _DIRECT
        else:
            self._mode = _POOLED if pooled else _RESUME

    def after(self, delay: float) -> "Timer":
        """Arm the timer ``delay`` virtual seconds from now.

        The arming point of the simulation; ``Engine.timeout`` and the
        bandwidth wakeup inline exactly this push. ``delay`` must be a
        finite non-negative number: NaN compares false against every
        heap key, so one NaN row would silently break the heap order
        for every later event, and an infinite one never fires.
        """
        if self.armed != -1:
            raise SimulationError("timer re-armed while armed")
        if not 0.0 <= delay < _INF:
            raise bad_delay(delay)
        engine = self._engine
        seq = self.armed = next(engine._seq)
        _heappush(self._timeline._heap, (engine.now + delay, seq, self))
        return self

    def cancel(self) -> None:
        """Disarm; the pending row (if any) will never fire. Idempotent."""
        if self.armed != -1:
            self.armed = -1
            self._timeline._note_stale()

    def _wait(self, callback: Callable) -> None:
        if self.armed == -1:
            # a fired one-shot may already be serving another waiter
            raise SimulationError("waited on a timer that is not armed")
        self._cb = callback


class Timeline:
    """Heap of pending timer rows, drained by :meth:`Engine.run`."""

    def __init__(self, engine: Any) -> None:
        self._engine = engine
        #: (time, seq, timer) rows; mutated in place only, so the engine
        #: loop may alias it across callbacks
        self._heap: list[tuple[float, int, Timer]] = []
        self._stale = 0

    def timer(self, kind: str = KIND_TASK) -> Timer:
        """A re-armable timer that resumes its waiter through the lane.

        For a serial owner that wants to keep one timer for life rather
        than take a pooled one-shot from :meth:`Engine.timeout` per wait.
        ``kind`` is a label for the reader; nothing uses it.
        """
        return Timer(self)

    @property
    def pending(self) -> int:
        """Rows in the heap, live and stale."""
        return len(self._heap)

    @property
    def stale_pending(self) -> int:
        """Cancelled rows still occupying heap slots."""
        return self._stale

    def _note_stale(self) -> None:
        self._stale += 1
        if self._stale >= _COMPACT_MIN and self._stale * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop stale rows and re-heapify in place.

        The surviving rows keep their ``(time, seq)`` keys, so the drain
        order — and every virtual timing — is the same with or without
        compaction.
        """
        self._heap[:] = [row for row in self._heap if row[1] == row[2].armed]
        heapq.heapify(self._heap)
        self._stale = 0
