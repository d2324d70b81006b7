"""A pthread-mutex model with explicit lock/unlock overhead.

Section V of the paper attributes part of v5's win over v3 to the
number of "system wide operations required to lock and unlock the mutex
that protects the critical region": v5 locks once per chain, v3 up to
four times. :class:`SimMutex` makes that cost explicit — every lock and
unlock burns a fixed overhead on the calling thread in addition to any
queueing delay, so the single-vs-parallel WRITE trade-off reproduces.
"""

from __future__ import annotations

from repro.sim.engine import Engine
from repro.sim.resources import Resource
from repro.util.validation import check_non_negative

__all__ = ["SimMutex"]


class SimMutex:
    """Mutual exclusion with per-operation overhead.

    Use from a process as::

        yield from mutex.lock()
        ...critical region...
        yield from mutex.unlock()

    or, holding for a known duration::

        yield from mutex.critical_section(duration)
    """

    def __init__(
        self,
        engine: Engine,
        lock_overhead: float = 0.0,
        unlock_overhead: float = 0.0,
        name: str = "",
    ) -> None:
        check_non_negative("lock_overhead", lock_overhead)
        check_non_negative("unlock_overhead", unlock_overhead)
        self.engine = engine
        self.name = name
        self.lock_overhead = lock_overhead
        self.unlock_overhead = unlock_overhead
        self._resource = Resource(engine, capacity=1, name=f"mutex:{name}")
        self.total_locks = 0

    @property
    def locked(self) -> bool:
        """True while some thread holds the mutex."""
        return self._resource.in_use > 0

    def abandon_waiters(self) -> int:
        """Mark every thread parked on the mutex dead (crash cleanup).

        Returns how many live waiters were abandoned. Delegates to
        :meth:`repro.sim.resources.Resource.abandon_waiters`.
        """
        return self._resource.abandon_waiters()

    def lock(self):
        """Generator helper: pay the lock overhead, then wait for the mutex."""
        if self.lock_overhead > 0:
            yield self.engine.timeout(self.lock_overhead)
        yield self._resource.acquire()
        self.total_locks += 1

    def unlock(self):
        """Generator helper: pay the unlock overhead, then release."""
        if self.unlock_overhead > 0:
            yield self.engine.timeout(self.unlock_overhead)
        self._resource.release()

    def critical_section(self, duration: float):
        """Generator helper: lock, hold for ``duration``, unlock."""
        yield from self.lock()
        try:
            if duration > 0:
                yield self.engine.timeout(duration)
        finally:
            yield from self.unlock()
