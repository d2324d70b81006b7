"""The discrete-event simulation kernel.

An :class:`Engine` owns a virtual clock and two event sources. Simulated
threads are ordinary Python generators wrapped in :class:`Process`; they
advance by ``yield``-ing *waitables* — :class:`SimEvent`, a
:class:`~repro.sim.timeline.Timer`, another :class:`Process`, or any
object exposing ``_wait(callback)``. The kernel resumes them when the
waitable fires.

Design notes
------------
- Two sources, one order. Events that fire *later* are timers with a
  row in the :class:`~repro.sim.timeline.Timeline` heap; callbacks that
  fire *now* sit in the *immediate lane*, a plain FIFO. Both stamp
  their entries ``(time, seq)`` from one shared monotone counter and
  the loop always runs the smaller stamp, so event ordering — and
  therefore every simulated timing — is fully deterministic.
- A lane entry is stamped with the clock at registration and the clock
  never runs ahead of a pending heap row, so the lane head sorts
  at-or-before the heap head and the sequence number breaks the tie.
  The drain order is therefore *identical* to pushing the same
  callbacks through the heap at zero delay, while costing one ``deque``
  operation instead of two O(log n) heap operations.
- Callbacks run *deferred* (through the lane), never synchronously
  from ``succeed()``. This keeps trigger cascades iterative (no
  recursion-depth coupling to chain length) and gives a single,
  predictable interleaving rule. The one shortcut is exact: a resumed
  timer whose lane entry would be the very next thing run (empty lane,
  no other row at this instant) is called in place, after drawing the
  same sequence number (``timeline.py``, "In-place rule"); and a
  zero-cost charge (:class:`NoWait`) resumes its process in place,
  exactly as a generator that never yielded would have continued.
- One one-shot state machine. :class:`SimEvent` is the only
  pending/succeeded/failed lifecycle in the kernel, and a
  :class:`Process` is one: it *is* its completion event, succeeding
  with the generator's return value or failing with what it raised.
  Joining a process (``yield process``, :func:`all_of`) registers on
  that event, and a finished process wakes its joiners through
  :meth:`SimEvent._dispatch`, one lane entry each, as any event does.
  ``engine.checkpoint`` is one too, succeeded with ``None`` when the
  engine is made: yielding it is a late wait on a triggered event, one
  lane entry and one seq, with no allocation. Two waitables keep their
  own ``_wait``: :class:`NoWait`, which draws no seq, and
  :class:`~repro.sim.timeline.Timer`, which is a heap row.
- A process that raises with nobody joining it re-raises out of
  :meth:`Engine.run` — silent death of a simulated thread would
  otherwise manifest as an inexplicable hang.
- A process dies with its last step. While it runs, a process is a
  reference cycle (it caches its own bound ``_step``); when its
  generator returns or raises, :meth:`Process._finish` drops the
  generator and both cached methods, so the process, its frame and the
  message or payload it carried are freed by reference count. A process
  parked for good — its owner is finished and its waitable abandoned —
  is ended with :meth:`Process.close`, which fails it without waking
  its joiners and closes the generator, running the ``finally`` blocks
  it is parked in; those may release a slot and wake a waiter, i.e.
  draw a sequence number, so ``close()`` belongs at a runtime's
  shutdown, after the run's last event, never on a crash-drain path
  (which only *abandons*). Resuming a finished or closed process is a
  :class:`SimulationError`.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from functools import partial
from heapq import heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.timeline import _DIRECT, _INF, _POOLED, Timeline, Timer, bad_delay
from repro.util.errors import SimulationError, TaskKilled

__all__ = [
    "Engine",
    "SimEvent",
    "Process",
    "NoWait",
    "WaitQueue",
    "all_of",
]

_PENDING = 0
_SUCCEEDED = 1
_FAILED = 2


class NoWait:
    """The waitable of a charge that costs nothing: it resumes its
    process in place, with ``None``, drawing no sequence number and
    consulting no abort rule — exactly where a generator helper that
    never yielded would have continued.

    It passes itself as the resume's ``fired``: a waitable that is
    neither succeeded nor failed, which :meth:`Process._step` sends in
    unchecked. A process that meets another one inside that resume is
    queued and resumed by the outer call, so a run of zero charges
    iterates instead of nesting frames.
    """

    __slots__ = ("_queued",)

    _status = _PENDING
    _value = None

    def __init__(self) -> None:
        self._queued: Optional[list[Callable]] = None

    def _wait(self, callback: Callable) -> None:
        queued = self._queued
        if queued is not None:
            queued.append(callback)
            return
        self._queued = queued = [callback]
        try:
            while queued:
                queued.pop()(self)
        finally:
            self._queued = None


class Engine:
    """Virtual clock plus the two event sources; the root of every simulation."""

    def __init__(self) -> None:
        self.now: float = 0.0
        #: zero-delay callbacks: (time, seq, fn, arg), FIFO == seq order
        self._immediate: deque[tuple[float, int, Callable, Any]] = deque()
        self._seq = itertools.count()
        self._running = False
        #: ``yield engine.checkpoint`` defers one lane step and continues
        #: (the schedulers' "the queue had an item" fast path)
        self.checkpoint = SimEvent(self).succeed()
        #: the waitable of a zero-cost charge
        self.no_wait = NoWait()
        #: the timed store: every event that fires later than now
        self.timeline = Timeline(self)
        #: fired one-shots from :meth:`timeout`, ready for reuse
        self._timeout_pool: list[Timer] = []

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable, *args: Any) -> Timer:
        """Run ``fn(*args)`` ``delay`` virtual seconds from now.

        The callback runs straight from the drain slot (no lane hop).
        Returns the one-shot timer; ``cancel()`` it to call the event off.
        """
        callback = partial(fn, *args) if args else fn
        return Timer(self.timeline, callback).after(delay)

    def timeout(self, delay: float) -> Timer:
        """A one-shot waitable that fires ``delay`` virtual seconds from now.

        ``yield engine.timeout(d)`` is the plain "let virtual time pass"
        wait; the process resumes through the lane with ``None``. The
        timer is recycled the moment it fires, so yield it right away
        and do not keep it. For a timeout that carries a value or has
        several waiters, ``schedule(d, event.succeed, value)`` on a
        :class:`SimEvent`.
        """
        # inlined Timer.after (hot: once per timed wait); a pooled timer
        # is never armed, so only the delay needs checking
        if not 0.0 <= delay < _INF:
            raise bad_delay(delay)
        pool = self._timeout_pool
        timer = pool.pop() if pool else Timer(self.timeline, pooled=True)
        seq = timer.armed = next(self._seq)
        heappush(self.timeline._heap, (self.now + delay, seq, timer))
        return timer

    def call_soon(self, fn: Callable, arg: Any = None) -> None:
        """Run ``fn(arg)`` at the current virtual time, deferred.

        The fast lane for zero-delay dispatch: same ``(time, seq)``
        ordering as ``schedule(0.0, fn, arg)``, but a single FIFO append
        instead of a heap push/pop pair, and no cancellation handle.
        """
        self._immediate.append((self.now, next(self._seq), fn, arg))

    def event(self) -> "SimEvent":
        """A fresh, untriggered event owned by this engine."""
        return SimEvent(self)

    def process(
        self, generator: Generator, name: Optional[str] = None
    ) -> "Process":
        """Wrap ``generator`` as a simulated thread and start it at t=now."""
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Drain both event sources; return the final virtual time.

        If ``until`` is given, stop as soon as the next event lies beyond
        it and set the clock to exactly ``until``; an ``until`` before
        now is an error, so the clock never runs backwards.

        Invariant: a callback may arm, cancel, or — via cancellation —
        compact the heap, so any peeked head row is stale the moment a
        callback has run. The loop therefore re-reads the heap and lane
        heads on every iteration and never carries a row across a
        callback. It does not shed stale heads ahead of time: a stale
        row is dropped when it is popped, and until then it sorts where
        its live self would have, so it can only end a lane burst early
        or send a resume through the lane — both exact. (:meth:`peek`
        sheds stale heads, so callers must treat it as mutating.)

        The loop leaves no cyclic garbage behind: a row is popped before
        its callback runs, a fired one-shot goes back to the pool, and a
        process that finishes drops its generator and cached callbacks
        (:meth:`Process._finish`). :mod:`repro.core.api` relies on that
        to run with the cyclic collector off.
        """
        if self._running:
            raise SimulationError("Engine.run() is not reentrant")
        if until is not None and until < self.now:
            raise SimulationError(f"run(until={until}) lies before now={self.now}")
        self._running = True
        timeline = self.timeline
        heap = timeline._heap  # only ever mutated in place, alias stays valid
        lane = self._immediate
        popleft = lane.popleft
        pool = self._timeout_pool
        seq = self._seq
        pop = heapq.heappop
        now = self.now
        try:
            while True:
                if lane:
                    # Every lane entry is stamped with the clock, which
                    # never runs ahead of a heap row, so the lane holds
                    # entries at ``now`` only and the heap head lies at or
                    # after it. Burst drain: the entries *currently* in the
                    # lane run without re-consulting the heap; one a
                    # callback pushes mid-burst carries a fresh (larger)
                    # sequence number, and so does a row armed mid-burst,
                    # so neither can sort before an entry already enqueued.
                    if not heap or heap[0][0] > now:
                        # the heap head is strictly later: the whole lane
                        # runs first, no entry needs comparing
                        for _ in range(len(lane)):
                            head = popleft()
                            head[2](head[3])
                        continue
                    # the head ties on time: the shared sequence counter
                    # decides, exactly as a heap push at zero delay would
                    # have. A stale head only ends the burst early.
                    best_seq = heap[0][1]
                    if lane[0][1] < best_seq:
                        for _ in range(len(lane)):
                            head = lane[0]
                            if head[1] > best_seq:
                                break
                            popleft()
                            head[2](head[3])
                        continue
                elif not heap:
                    break
                if until is not None and heap[0][0] > until:
                    self.now = until
                    return until
                time, row_seq, timer = pop(heap)
                if row_seq != timer.armed:
                    # a stale row (cancelled or re-armed timer) is dropped
                    # when popped and never moves the clock
                    timeline._stale -= 1
                    continue
                self.now = now = time
                timer.armed = -1
                mode = timer._mode
                if mode == _DIRECT:
                    timer._cb()
                    continue
                # resume the parked continuation: the one extra sequence
                # number a resumed wait costs is drawn either way
                cb = timer._cb
                if mode == _POOLED:
                    timer._cb = None
                    pool.append(timer)
                if cb is None:
                    continue
                stamp = next(seq)
                if lane or (heap and heap[0][0] <= time):
                    # a stale head here only sends the resume through the
                    # lane, which is always exact
                    lane.append((time, stamp, cb, None))
                else:
                    # In place: the lane entry would carry the largest
                    # stamp in the system with nothing else queued at this
                    # instant, so it would be the very next thing run.
                    # Letting go of it afterwards frees a finished
                    # transfer here, as a lane hop would have.
                    cb(None)
                    cb = None
            if until is not None and until > now:
                self.now = until
        finally:
            self._running = False
        return self.now

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None if nothing is queued.

        Sheds stale heap heads as a side effect — see the :meth:`run`
        invariant.
        """
        timeline = self.timeline
        heap = timeline._heap
        while heap and heap[0][1] != heap[0][2].armed:
            heapq.heappop(heap)
            timeline._stale -= 1
        if self._immediate and (not heap or self._immediate[0][0] <= heap[0][0]):
            return self._immediate[0][0]
        return heap[0][0] if heap else None


class SimEvent:
    """A one-shot event processes can wait on.

    Lifecycle: pending → succeeded (with a value) or failed (with an
    exception). Waiters registered after the fact are resumed
    immediately (through the lane), so late subscription is safe.

    An event may also be *abandoned* (:meth:`abandon`): its waiter is
    known dead — e.g. a fault-killed worker parked on a queue — and a
    channel must never deliver an item to it. Abandonment is orthogonal
    to the pending/succeeded/failed lifecycle: nothing fires.
    """

    __slots__ = ("_engine", "_status", "_value", "_callbacks", "abandoned")

    def __init__(self, engine: Engine) -> None:
        self._engine = engine
        self._status = _PENDING
        self._value: Any = None
        #: lazily allocated — most events on the hot paths trigger with
        #: zero or one waiter, so the empty list would be pure churn
        self._callbacks: Optional[list[Callable[["SimEvent"], None]]] = None
        self.abandoned = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._status != _PENDING

    @property
    def ok(self) -> bool:
        """True iff the event succeeded."""
        return self._status == _SUCCEEDED

    @property
    def failed(self) -> bool:
        """True iff the event failed."""
        return self._status == _FAILED

    @property
    def value(self) -> Any:
        """The success value (or the exception if failed)."""
        return self._value

    # -- transitions -----------------------------------------------------
    def succeed(self, value: Any = None) -> "SimEvent":
        """Fire the event successfully, resuming all waiters."""
        if self._status != _PENDING:
            raise SimulationError("event already triggered")
        self._status = _SUCCEEDED
        self._value = value
        self._dispatch()
        return self

    def fail(self, exception: BaseException) -> "SimEvent":
        """Fire the event as a failure; waiters see the exception thrown."""
        if self._status != _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._status = _FAILED
        self._value = exception
        self._dispatch()
        return self

    def _dispatch(self) -> None:
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = None
            # inlined call_soon (hot: once per triggered event)
            engine = self._engine
            imm = engine._immediate
            now = engine.now
            seq = engine._seq
            for cb in callbacks:
                imm.append((now, next(seq), cb, self))

    # -- waiting ----------------------------------------------------------
    def _wait(self, callback: Callable[["SimEvent"], None]) -> None:
        """Register ``callback(event)``; runs (via the lane) once triggered."""
        if self._status != _PENDING:
            engine = self._engine  # inlined call_soon
            engine._immediate.append(
                (engine.now, next(engine._seq), callback, self)
            )
        elif self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def abandon(self) -> None:
        """Mark the event as never-to-be-consumed and drop its waiters.

        Idempotent, and a no-op on already-triggered events. Used when
        the process waiting on this event is dead (crashed node): a
        later ``succeed()`` from a queue would hand an item to a corpse
        and silently lose it.
        """
        if self._status == _PENDING:
            self.abandoned = True
            self._callbacks = None


class _Parked(SimEvent):
    """A :class:`SimEvent` parked on a :class:`WaitQueue`."""

    __slots__ = ("parked_at",)

    #: virtual time at which the waiter was parked
    parked_at: float


class WaitQueue(deque):
    """FIFO of processes blocked on one thing: the shared waiter protocol.

    Stores, resources, mutexes and barriers all park their blocked
    callers here. A parked waiter can die before it is woken — its
    process is fault-killed, or a drain path abandons it — and waking a
    corpse would hand it an item or a slot that is then lost for good.
    So the one rule every wake path needs lives here, once: *abandoned
    or already-triggered waiters are discarded, never woken*.

    It is a ``deque`` of the parked events, so emptiness and length are
    C-speed on the ``put()``/``release()`` hot paths; ``len()`` counts
    dead entries too, until a wake sheds them.
    """

    __slots__ = ("_engine",)

    def __init__(self, engine: Engine) -> None:
        super().__init__()
        self._engine = engine

    def park(self) -> _Parked:
        """A fresh pending event at the back of the queue; ``yield`` it."""
        event = _Parked(self._engine)
        event.parked_at = self._engine.now
        self.append(event)
        return event

    def wake_one(self, value: Any = None) -> Optional[_Parked]:
        """Succeed the oldest live waiter with ``value``.

        Returns the woken event (its ``parked_at`` is the virtual time
        it was parked), or ``None`` if no live waiter was left — the
        caller then keeps the item or slot.
        """
        while self:
            event = self.popleft()
            if event._status == _PENDING and not event.abandoned:
                event.succeed(value)
                return event
        return None

    def wake_all(self, value: Any = None) -> None:
        """Succeed every live waiter with ``value``, oldest first."""
        while self.wake_one(value) is not None:
            pass

    def abandon_all(self) -> int:
        """Mark every waiter dead and empty the queue; returns how many
        were still live."""
        live = 0
        for event in self:
            if event._status == _PENDING and not event.abandoned:
                event.abandon()
                live += 1
        self.clear()
        return live


class Process(SimEvent):
    """A simulated thread: a generator driven by the engine, and its own
    completion event.

    The generator may ``yield`` any waitable; the value sent back is the
    waitable's success value. As a :class:`SimEvent`, the process
    succeeds with the generator's return value or fails with what the
    generator raised, so ``yield process`` and :func:`all_of` join it
    like any other event — processes fork and join each other. The
    generator is held until its last step and no longer (see the
    module's design notes); :meth:`close` ends a process that will never
    take another.

    The abort rule: while :attr:`abort` holds a predicate, it is
    consulted before every *successful* resume — never on a failed
    waitable, which is thrown in as usual, nor on a zero-cost charge
    (:class:`NoWait`), which never stops the body — and when it returns
    true the slot is cleared and :class:`~repro.util.errors.TaskKilled`
    is thrown into the generator instead of the value, once
    (:meth:`_checked`). A two-phase charge consults it between its
    phases too, where the generator helper it replaced resumed. A
    runtime runs a task body through :meth:`abortable`, which installs
    the predicate right before the body's first step (taken in the same
    step, so never checked) and afterwards reads whether the kill fired:
    the slot no longer holds what it installed.
    """

    __slots__ = ("name", "_generator", "_step_cb", "_send", "abort")

    def __init__(
        self, engine: Engine, generator: Generator, name: Optional[str] = None
    ) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process needs a generator, got {type(generator).__name__} "
                "(did you call the function with ()?)"
            )
        super().__init__(engine)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        # the same bound methods are used on every yield; binding them
        # once avoids a descriptor allocation per step
        self._step_cb = self._step
        self._send = generator.send
        #: the abort rule: a predicate consulted before every successful
        #: resume while set; see :meth:`_step`
        self.abort: Optional[Callable[[], bool]] = None
        # inlined call_soon (hot: once per spawned process)
        engine._immediate.append(
            (engine.now, next(engine._seq), self._step_cb, None)
        )

    def abortable(self, body: Generator, abort: Optional[Callable[[], bool]]):
        """Generator helper: run ``body`` in this process under ``abort``.

        ``completed = yield from process.abortable(body, abort)`` from
        inside the process installs the abort rule for the body's
        duration (``abort=None`` installs nothing) and returns False if
        the kill fired — whether the body let
        :class:`~repro.util.errors.TaskKilled` out or swallowed it — and
        True otherwise. Any other exception from the body propagates.
        """
        self.abort = abort
        try:
            yield from body
            return self.abort is abort  # a fired kill cleared the slot
        except TaskKilled:
            return False
        finally:
            self.abort = None

    def close(self) -> None:
        """Kill a parked process whose owner is gone; a no-op once finished.

        Whatever the process waits on must already be abandoned (nothing
        may resume it later), and anyone joining it is dropped, not
        woken: the process counts as failed from here on. Closing the
        generator runs the ``finally`` blocks it is parked inside, and
        those may release a slot and wake a waiter, i.e. draw a sequence
        number — so runtimes close their processes at shutdown, after
        the run's last event, and never on a crash-drain path.
        """
        generator = self._generator
        if generator is None:
            return
        self._status = _FAILED
        self._value = SimulationError(f"process {self.name!r} was closed")
        self._callbacks = None
        self._generator = self._send = self._step_cb = self.abort = None
        generator.close()

    def _finish(self, status: int, value: Any) -> None:
        self._status = status
        self._value = value
        # A process dies with its last step. The cached bound methods
        # make a live process a cycle (``_step_cb`` -> self); dropping
        # them here frees the generator, its frame and the message it
        # carried by reference count, not at the next collection.
        self._generator = self._send = self._step_cb = self.abort = None
        self._dispatch()

    def _checked(self, fired: Optional[SimEvent]) -> Optional[SimEvent]:
        """The abort rule at a successful resume, with :attr:`abort` set:
        ``fired`` itself, or — when the predicate holds — a failed
        waitable carrying :class:`~repro.util.errors.TaskKilled`, after
        clearing the slot, so the kill is thrown in once and the body's
        cleanup then runs unchecked. :meth:`_step` consults it, and so
        does a two-phase charge between its phases (``sim/node.py``)."""
        if self.abort():
            self.abort = None
            killed = TaskKilled("node crashed under this task")
            return SimEvent(self._engine).fail(killed)
        return fired

    def _step(self, fired: Optional[SimEvent]) -> None:
        try:
            if self.abort is not None and (
                fired is None or fired._status == _SUCCEEDED
            ):
                fired = self._checked(fired)
            if fired is None:
                target = self._send(None)
            elif fired._status == _FAILED:
                target = self._generator.throw(fired._value)
            else:
                target = self._send(fired._value)
        except StopIteration as stop:
            self._finish(_SUCCEEDED, stop.value)
            return
        except BaseException as exc:
            if self._status != _PENDING:
                raise SimulationError(
                    f"process {self.name!r} was resumed after it finished"
                ) from None
            if self._callbacks:
                self._finish(_FAILED, exc)
                return
            raise SimulationError(
                f"unhandled exception in simulated process {self.name!r}"
            ) from exc
        try:
            wait = target._wait
        except AttributeError:
            raise SimulationError(
                f"process {self.name!r} yielded non-waitable {target!r}"
            ) from None
        wait(self._step_cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "alive"
        return f"Process({self.name!r}, {state})"


def all_of(engine: Engine, events: Iterable) -> SimEvent:
    """An event that succeeds when every input has succeeded.

    Inputs are :class:`SimEvent` objects, a :class:`Process` among them
    (a bare ``Timer`` carries no value or failure state; wrap a delay as
    ``schedule(d, event.succeed, value)``).
    The success value is the list of individual values in input order.
    If any input fails, the combined event fails with that exception
    (first failure wins).
    """
    events = list(events)
    combined = SimEvent(engine)
    if not events:
        combined.succeed([])
        return combined
    remaining = [len(events)]
    values: list[Any] = [None] * len(events)

    def make_cb(index: int):
        def on_fire(ev: SimEvent) -> None:
            if combined.triggered:
                return
            if ev.failed:
                combined.fail(ev.value)
                return
            values[index] = ev.value
            remaining[0] -= 1
            if remaining[0] == 0:
                combined.succeed(list(values))

        return on_fire

    for i, ev in enumerate(events):
        ev._wait(make_cb(i))
    return combined

