"""Contended resources for the simulated machine.

Two service disciplines cover everything the reproduction needs:

- :class:`Resource` — a counted semaphore with FIFO waiters. Used for
  NIC serialization, GA request handlers, and (via
  :class:`~repro.sim.mutex.SimMutex`) pthread mutexes.
- :class:`BandwidthResource` — a fluid processor-sharing server. All
  active jobs share the capacity equally, which is the standard model
  for per-node memory bandwidth shared among cores. This is what makes
  the original NWChem code's scaling taper off around seven cores per
  node in the Figure 9 reproduction: SORT and accumulate traffic from
  many ranks divides a fixed byte rate.

Callers blocked on a :class:`Resource` park on the shared
:class:`~repro.sim.engine.WaitQueue`. The bandwidth server keeps one
re-armable :class:`~repro.sim.timeline.Timer` for its single pending
wakeup, instead of creating one per transfer arrival.
"""

from __future__ import annotations

from heapq import heappush
from typing import Optional

from repro.sim.engine import Engine, SimEvent, WaitQueue
from repro.sim.timeline import _INF, Timer, bad_delay
from repro.util.errors import SimulationError
from repro.util.validation import check_positive

__all__ = ["Resource", "BandwidthResource"]


class Resource:
    """Counted semaphore with FIFO waiting.

    ``acquire()`` returns a :class:`SimEvent` to ``yield`` on; pair every
    successful acquire with exactly one ``release()``.

    A waiter whose process died (fault-killed worker, drained scheduler)
    is *abandoned* — :meth:`release` skips it instead of granting a slot
    to a corpse (a leaked slot deadlocks the channel: the NIC, under
    chaos). That rule is the :class:`~repro.sim.engine.WaitQueue`'s.
    """

    __slots__ = (
        "engine",
        "capacity",
        "name",
        "_in_use",
        "_waiters",
        "total_acquisitions",
        "total_wait_time",
    )

    def __init__(self, engine: Engine, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"Resource capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters = WaitQueue(engine)
        # statistics
        self.total_acquisitions = 0
        self.total_wait_time = 0.0

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of processes waiting for a slot."""
        return len(self._waiters)

    def acquire(self) -> SimEvent:
        """Request a slot; the returned event fires when it is granted."""
        if self.try_acquire():
            return SimEvent(self.engine).succeed()
        return self._waiters.park()

    def try_acquire(self) -> bool:
        """Take a free slot now, synchronously: no event and no lane hop.

        Returns False, taking nothing, when every slot is held; the
        caller then parks on :meth:`acquire`. The grant instant is the
        same as a pre-succeeded :meth:`acquire` event's; only
        same-instant interleaving differs, and the golden digests pin
        which call sites take the shortcut (the NIC channels do).
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            self.total_acquisitions += 1
            return True
        return False

    def release(self) -> None:
        """Return a slot, handing it to the oldest *live* waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release() of un-acquired resource {self.name!r}")
        woken = self._waiters.wake_one()
        if woken is None:
            self._in_use -= 1
        else:
            self.total_acquisitions += 1
            self.total_wait_time += self.engine.now - woken.parked_at

    def abandon_waiters(self) -> int:
        """Mark every pending waiter dead; returns how many were live.

        For drain paths (``NodeScheduler.drain``): processes parked on
        this resource will never resume, so their grants must never
        fire.
        """
        return self._waiters.abandon_all()


class BandwidthResource:
    """Fluid processor-sharing server.

    ``transfer(amount)`` injects a job of ``amount`` work units (e.g.
    bytes); all active jobs receive ``capacity / n_jobs`` units per
    second. The returned event fires when the job's work is done. This
    gives exact egalitarian sharing, the usual first-order model for a
    memory controller shared by symmetric cores.

    Jobs live in struct-of-arrays columns (remaining, original size,
    completion event) so the per-arrival charge is one list
    comprehension over the remaining column, and one direct-mode timer carries the single pending wakeup: every
    arrival cancels and re-arms it.
    """

    _EPS = 1e-12

    __slots__ = (
        "engine",
        "capacity",
        "per_job_cap",
        "name",
        "_rem",
        "_size",
        "_events",
        "_last_update",
        "_wakeup",
        "total_work",
        "busy_time",
    )

    def __init__(
        self,
        engine: Engine,
        capacity: float,
        name: str = "",
        per_job_cap: Optional[float] = None,
    ) -> None:
        check_positive("BandwidthResource capacity", capacity)
        if per_job_cap is not None:
            check_positive("BandwidthResource per_job_cap", per_job_cap)
        self.engine = engine
        self.capacity = capacity
        self.per_job_cap = per_job_cap
        self.name = name
        # struct-of-arrays job columns
        self._rem: list[float] = []
        self._size: list[float] = []
        self._events: list[SimEvent] = []
        self._last_update = engine.now
        self._wakeup = Timer(engine.timeline, self._on_wakeup)
        # statistics
        self.total_work = 0.0
        self.busy_time = 0.0

    def transfer(self, amount: float) -> SimEvent:
        """Inject ``amount`` work units; event fires at completion.

        Zero-size transfers complete immediately (the waiter still
        resumes through the lane, like any pre-succeeded event).

        Hot (once per memory charge), so the charge of the elapsed time
        (:meth:`_advance`) and the re-arm of the wakeup
        (:meth:`_reschedule`) are inlined, with the same float operations
        in the same order and the sequence number drawn at the same
        point. An arrival at an idle resource — about half of them —
        skips both: nothing is charged and the wakeup is unarmed.
        """
        if not amount >= 0:  # NaN too: its wakeup would re-arm forever
            raise SimulationError(f"transfer amount must be >= 0, got {amount}")
        engine = self.engine
        event = SimEvent(engine)
        if amount == 0:
            event.succeed()
            return event
        now = engine.now
        rem = self._rem
        if rem:
            dt = now - self._last_update
            if dt > 0:
                self.busy_time += dt
                share = self.capacity / len(rem)
                cap = self.per_job_cap
                if cap is not None and cap < share:
                    share = cap
                served = dt * share
                rem = [r - served for r in rem]
                self._rem = rem
            rem.append(amount)
            first = min(rem)
            self._wakeup.cancel()
        else:
            rem.append(amount)
            first = amount
        self._last_update = now
        self._size.append(amount)
        self._events.append(event)
        self.total_work += amount
        share = self.capacity / len(rem)
        cap = self.per_job_cap
        if cap is not None and cap < share:
            share = cap
        delay = first / share
        if not delay > 0.0:  # max(0.0, delay)
            delay = 0.0
        if not delay < _INF:
            raise bad_delay(delay)
        wakeup = self._wakeup
        seq = wakeup.armed = next(engine._seq)
        heappush(engine.timeline._heap, (now + delay, seq, wakeup))
        return event

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Charge elapsed time against every active job.

        Each job's service rate is the equal share ``capacity / n_jobs``,
        capped at ``per_job_cap``: one core cannot drive the whole memory
        controller, so a lone job gets the cap while many concurrent jobs
        share ``capacity``.
        """
        now = self.engine.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._rem:
            return
        self.busy_time += dt
        rem = self._rem
        share = self.capacity / len(rem)
        cap = self.per_job_cap
        if cap is not None and cap < share:
            share = cap
        served = dt * share
        self._rem = [r - served for r in rem]

    def _reschedule(self) -> None:
        wakeup = self._wakeup
        wakeup.cancel()
        rem = self._rem
        if not rem:
            return
        share = self.capacity / len(rem)
        cap = self.per_job_cap
        if cap is not None and cap < share:
            share = cap
        delay = max(0.0, min(rem) / share)
        # inlined Timer.after; the cancel above leaves the wakeup unarmed
        if not 0.0 <= delay < _INF:
            raise bad_delay(delay)
        engine = self.engine
        seq = wakeup.armed = next(engine._seq)
        heappush(engine.timeline._heap, (engine.now + delay, seq, wakeup))

    def _on_wakeup(self) -> None:
        """The wakeup fired: charge the elapsed time, then finish every
        job whose work is done and re-arm for the next.

        The charge (:meth:`_advance`) is inlined, and a lone job — about
        half the wakeups — finishes without building the keep/finish
        columns. The fired timer is unarmed, so nothing needs cancelling.
        """
        rem = self._rem
        now = self.engine.now
        dt = now - self._last_update
        self._last_update = now
        if not rem:
            return
        n = len(rem)
        rate = self.capacity / n
        cap = self.per_job_cap
        if cap is not None and cap < rate:
            rate = cap
        if dt > 0:
            self.busy_time += dt
            served = dt * rate
            rem = [r - served for r in rem]
            self._rem = rem
        eps = self._EPS
        size = self._size
        events = self._events
        if n == 1:
            r = rem[0]
            if r <= eps * size[0] or now + r / rate == now:
                event = events[0]
                rem.clear()
                size.clear()
                events.clear()
                event.succeed()
            else:
                self._reschedule()  # numerical drift: wait out the residual
            return
        finished: list[SimEvent] = []
        keep_r: list[float] = []
        keep_s: list[float] = []
        keep_e: list[SimEvent] = []
        for i, r in enumerate(rem):
            if (
                r <= eps * size[i]
                # residual so small its completion delay underflows the
                # float clock (now + delay == now): finishing it now is
                # the only way time can advance
                or now + r / rate == now
            ):
                finished.append(events[i])
            else:
                keep_r.append(r)
                keep_s.append(size[i])
                keep_e.append(events[i])
        if not finished:
            # Numerical drift; just reschedule for the residual.
            self._reschedule()
            return
        self._rem = keep_r
        self._size = keep_s
        self._events = keep_e
        for event in finished:
            event.succeed()
        self._reschedule()

