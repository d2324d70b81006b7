"""Barrier synchronization (GA_Sync).

The TCE-generated CC code splits its work into seven levels "with an
explicit synchronization step between those levels" — so chains are
only stealable within a level. :class:`Barrier` is cyclic: the same
object synchronizes every level in turn.
"""

from __future__ import annotations

from repro.sim.engine import Engine, WaitQueue
from repro.util.errors import SimulationError

__all__ = ["Barrier"]


class Barrier:
    """Cyclic barrier for a fixed set of ``parties`` simulated threads."""

    def __init__(self, engine: Engine, parties: int, overhead: float = 0.0) -> None:
        if parties < 1:
            raise SimulationError(f"barrier needs >= 1 party, got {parties}")
        self.engine = engine
        self.parties = parties
        self.overhead = overhead
        self._waiting = WaitQueue(engine)
        self.generation = 0

    @property
    def arrived(self) -> int:
        """Parties already waiting at the current generation."""
        return len(self._waiting)

    def withdraw(self, n: int = 1) -> None:
        """Permanently remove ``n`` parties (a rank died).

        Takes effect immediately: if everyone still alive is already
        waiting, the current generation releases now instead of hanging
        on arrivals that can never come.
        """
        if n < 0 or n >= self.parties:
            raise SimulationError(
                f"cannot withdraw {n} of {self.parties} barrier parties"
            )
        self.parties -= n
        if self._waiting and len(self._waiting) >= self.parties:
            self._release()

    def _release(self) -> None:
        self.generation += 1
        self._waiting.wake_all(self.generation)

    def arrive(self):
        """Generator helper: block until all parties have arrived.

        Each arrival pays the per-rank barrier overhead first (the
        GA_Sync software cost), so a barrier is never free even when
        everyone shows up simultaneously.
        """
        if self.overhead > 0:
            yield self.engine.timeout(self.overhead)
        event = self._waiting.park()
        if len(self._waiting) == self.parties:
            self._release()
        elif len(self._waiting) > self.parties:  # pragma: no cover - defensive
            raise SimulationError("more arrivals than barrier parties")
        generation = yield event
        return generation
