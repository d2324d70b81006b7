"""Deterministic random-number streams.

Every stochastic choice in the library draws from an :class:`RngStream`
derived from a user-provided master seed and a string *purpose* label.
Two runs with the same seed therefore see identical tile data, identical
noise, identical everything — which is what lets the test suite assert
exact equality between runtimes.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "RngStream", "seeded_normal"]


def derive_seed(master_seed: int, purpose: str) -> int:
    """Derive a child seed from ``master_seed`` and a purpose label.

    The derivation hashes the pair so distinct purposes yield
    statistically independent streams, and the mapping is stable across
    platforms and Python versions (unlike ``hash()``).

    Parameters
    ----------
    master_seed:
        Non-negative master seed for the whole run.
    purpose:
        Free-form label, e.g. ``"tensor:v2"`` or ``"noise:node3"``.

    Returns
    -------
    int
        A seed in ``[0, 2**63)``.
    """
    if master_seed < 0:
        raise ValueError(f"master_seed must be non-negative, got {master_seed}")
    digest = hashlib.sha256(f"{master_seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class RngStream:
    """A labelled, reproducible random stream.

    Thin wrapper over :class:`numpy.random.Generator` that records its
    provenance (master seed + purpose) for debugging and supports
    spawning child streams.
    """

    def __init__(self, master_seed: int, purpose: str) -> None:
        self.master_seed = master_seed
        self.purpose = purpose
        self._gen = np.random.default_rng(derive_seed(master_seed, purpose))

    def child(self, purpose: str) -> "RngStream":
        """Spawn an independent stream labelled ``purpose`` under this one."""
        return RngStream(self.master_seed, f"{self.purpose}/{purpose}")

    @property
    def generator(self) -> np.random.Generator:
        """The underlying NumPy generator."""
        return self._gen

    def standard_normal(self, shape) -> np.ndarray:
        """Standard-normal array of the given shape (float64)."""
        return self._gen.standard_normal(shape)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """Uniform samples in ``[low, high)``."""
        return self._gen.uniform(low, high, size)

    def integers(self, low: int, high: int, size=None):
        """Integer samples in ``[low, high)``."""
        return self._gen.integers(low, high, size=size)

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle of a Python list."""
        self._gen.shuffle(seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(seed={self.master_seed}, purpose={self.purpose!r})"


def seeded_normal(master_seed: int, purpose: str, size: int) -> np.ndarray:
    """The seeded standard-normal contents of a tensor, read-only.

    The one seeded fill: a workload's input tensors adopt this array as
    their storage (:meth:`repro.ga.array.GlobalArray.adopt`), so it is
    frozen here and never written — a writer copies first.
    """
    values = RngStream(master_seed, purpose).standard_normal(size)
    values.flags.writeable = False
    return values
