"""Deterministic random-number streams.

Every stochastic choice in the library draws from a NumPy generator
seeded by :func:`derive_seed` from a user-provided master seed and a
string *purpose* label.
Two runs with the same seed therefore see identical tile data, identical
noise, identical everything — which is what lets the test suite assert
exact equality between runtimes.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

__all__ = ["derive_seed", "seeded_normal"]

#: per master seed, the sha256 state after ``f"{seed}:"`` — a derivation
#: copies it and hashes only the purpose (the fault plan derives one seed
#: per fault decision). Only plain ``int`` seeds are kept: ``True``, ``1``
#: and ``1.0`` are one dict key but three different texts.
_PREFIXES: dict[int, "hashlib._Hash"] = {}
#: a run uses a handful of seeds; a long-lived process may see many
_MAX_PREFIXES = 1024
#: the first 8 digest bytes as a little-endian unsigned integer
_FIRST_U64 = struct.Struct("<Q").unpack_from


def _seed_prefix(master_seed: int):
    """The sha256 state after hashing ``f"{master_seed}:"``."""
    if master_seed < 0:
        raise ValueError(f"master_seed must be non-negative, got {master_seed}")
    prefix = hashlib.sha256(f"{master_seed}:".encode())
    if type(master_seed) is int:
        if len(_PREFIXES) >= _MAX_PREFIXES:
            _PREFIXES.clear()
        _PREFIXES[master_seed] = prefix
    return prefix


def derive_seed(master_seed: int, purpose: str) -> int:
    """Derive a child seed from ``master_seed`` and a purpose label.

    The derivation hashes the pair so distinct purposes yield
    statistically independent streams, and the mapping is stable across
    platforms and Python versions (unlike ``hash()``): it is the first 63
    bits of ``sha256(f"{master_seed}:{purpose}")``, computed from the
    seed's cached prefix state.

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
    prefix = _PREFIXES.get(master_seed) if type(master_seed) is int else None
    if prefix is None:
        prefix = _seed_prefix(master_seed)
    digest = prefix.copy()
    digest.update(purpose.encode())
    return _FIRST_U64(digest.digest())[0] >> 1


def seeded_normal(master_seed: int, purpose: str, size: int) -> np.ndarray:
    """The seeded standard-normal contents of a tensor, read-only.

    The one seeded fill: a workload's input tensors adopt this array as
    their storage (:meth:`repro.ga.array.GlobalArray.adopt`), so it is
    frozen here and never written — a writer copies first. The
    correlation-energy probe draws its weights here too.
    """
    generator = np.random.default_rng(derive_seed(master_seed, purpose))
    values = generator.standard_normal(size)
    values.flags.writeable = False
    return values
