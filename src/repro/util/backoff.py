"""Capped exponential backoff, shared by the simulation and the host.

Two layers of this system retry with exponential backoff: the simulated
NIC retransmit path (:meth:`repro.sim.faults.FaultPlan.backoff`, virtual
seconds) and the host-level sweep/service retry machinery
(:class:`repro.experiments.sweep.SweepExecutor`, wall seconds). Both use
the same discipline — ``base * 2**attempt`` clamped to a ceiling — and
both must survive absurd attempt counts without overflowing: naive
``2.0 ** attempt`` raises ``OverflowError`` past attempt ~1024, which
would turn a retry storm into a crash of the retry machinery itself.
"""

from __future__ import annotations

__all__ = ["capped_exponential"]

#: ``2.0 ** e`` overflows IEEE 754 doubles at e >= 1024; past this we
#: know the uncapped delay would exceed any finite ceiling anyway.
_MAX_EXPONENT = 1023


def capped_exponential(base: float, attempt: int, cap: float) -> float:
    """``min(base * 2**attempt, cap)``, safe at any attempt count.

    ``attempt`` counts prior failures (the first retry waits ``base``).
    A non-positive ``base`` short-circuits to 0.0 (no delay discipline).
    """
    if base <= 0.0:
        return 0.0
    if attempt >= _MAX_EXPONENT:
        return cap
    return min(base * (2.0 ** max(attempt, 0)), cap)
