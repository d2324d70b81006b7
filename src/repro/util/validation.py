"""Small argument-validation helpers used at public API boundaries.

These raise :class:`~repro.util.errors.ConfigurationError` with a
message naming the offending parameter, so misconfiguration surfaces at
construction time rather than as a confusing mid-simulation failure.
"""

from __future__ import annotations

from repro.util.errors import ConfigurationError

__all__ = ["check_positive", "check_non_negative"]


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it for chaining."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0``; return it for chaining."""
    if not value >= 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return value

