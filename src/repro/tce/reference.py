"""Independent dense-NumPy reference for the contraction semantics.

The paper validates its five algorithmic variants by checking that "the
final result (correlation energy) computed by the different variations
matched up to the 14th digit". We do the same, against a *third*
implementation that shares no code with either runtime: plain NumPy
matmul/transpose over the operand blocks, chain by chain.

Works for any term built by :mod:`repro.tce.terms` (each chain's block
references name the operand tensors, resolved through the run's
arrays), including full multi-subroutine CC iterations. Only usable in
``DataMode.REAL`` and meant for the tiny/small systems.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Mapping

import numpy as np

from repro.ga.array import assemble
from repro.tce.subroutine import ChainSpec, Subroutine
from repro.util.rng import seeded_normal

__all__ = [
    "BlockReader",
    "chain_output",
    "compute_subroutine_reference",
    "compute_iteration_reference",
    "compute_reference",
    "correlation_energy",
]


class BlockReader:
    """A Global Array's contents as its owners' read-only snapshots.

    The snapshots are taken once (:meth:`~repro.ga.array.GlobalArray.read_segment`,
    no copy); ``reader[lo:hi]`` is a view into one of them, or — only for
    a block that spans owners — one concatenation of the pieces. Sliced
    like the flat contents, so a reference reads blocks from it as it
    would from a gathered copy, without ever holding a second copy of
    every input.
    """

    __slots__ = ("_starts", "_parts")

    def __init__(self, array) -> None:
        owned = array.distribution.distribution()
        self._starts = [segment.lo for segment in owned]
        self._parts = [array.read_segment(segment) for segment in owned]

    def __getitem__(self, block: slice) -> np.ndarray:
        lo, hi = block.start, block.stop
        i = bisect.bisect_right(self._starts, lo) - 1
        start, part = self._starts[i], self._parts[i]
        if hi - start <= len(part):
            return part[lo - start : hi - start]
        pieces = [part[lo - start :]]
        while self._starts[i] + len(self._parts[i]) < hi:
            i += 1
            pieces.append(self._parts[i][: hi - self._starts[i]])
        return assemble(pieces)


def chain_output(chain: ChainSpec, values: Mapping) -> np.ndarray:
    """The (m, n) chain result C = sum_g A_g^T @ B_g.

    ``values`` maps each operand tensor's name to its flat contents, or
    to a :class:`BlockReader` over the Global Array holding them.
    """
    C = np.zeros((chain.m, chain.n))
    for gemm in chain.gemms:
        a_flat = values[gemm.a.tensor.name]
        b_flat = values[gemm.b.tensor.name]
        a = a_flat[gemm.a.lo : gemm.a.hi].reshape(gemm.k, gemm.m)
        b = b_flat[gemm.b.lo : gemm.b.hi].reshape(gemm.k, gemm.n)
        C += a.T @ b
    return C


def compute_subroutine_reference(
    subroutine: Subroutine, arrays: Mapping, out: np.ndarray | None = None
) -> np.ndarray:
    """Expected flat contents of the output array after one subroutine.

    ``arrays`` maps tensor names to the run's Global Arrays; every GEMM
    block is read from the inputs' snapshots (:class:`BlockReader`), so
    no input is copied whole. Recomputes every chain densely and applies each
    active SORT_4 target: reshape C to the 4-index tile, permute axes,
    scale by the antisymmetry sign, accumulate into the target block
    range. Pass ``out`` to accumulate several subroutines into one array.
    """
    if out is None:
        out = np.zeros(subroutine.output.total)
    values = {}
    for tensor in subroutine.inputs:
        array = arrays[tensor.name]
        if not array.holds_data:
            raise ValueError("reference computation requires DataMode.REAL")
        values[tensor.name] = BlockReader(array)
    for chain in subroutine.chains:
        C = chain_output(chain, values)
        tile = C.reshape(chain.tile_shape)
        for sw in chain.active_sorts:
            sorted_block = sw.sign * np.transpose(tile, sw.perm)
            out[sw.target.lo : sw.target.hi] += sorted_block.reshape(-1)
    return out


def compute_iteration_reference(
    subroutines: Iterable[Subroutine], arrays: Mapping
) -> np.ndarray:
    """Expected i2 contents after a whole iteration's sub-kernels."""
    subroutines = list(subroutines)
    if not subroutines:
        raise ValueError("need at least one subroutine")
    out = np.zeros(subroutines[0].output.total)
    for subroutine in subroutines:
        compute_subroutine_reference(subroutine, arrays, out=out)
    return out


def compute_reference(workload) -> np.ndarray:
    """Reference for a single-term workload (e.g. a bound ``t2_7``)."""
    return compute_subroutine_reference(workload.subroutine, workload.arrays)


def correlation_energy(i2_flat: np.ndarray, seed: int = 7) -> float:
    """Deterministic scalar probe of the full output tensor.

    A stand-in for NWChem's correlation-energy reduction: a seeded
    random linear functional of i2. Any element-wise discrepancy between
    two runs shows up here, which makes it the right single number for
    the paper's 14-digit agreement check.
    """
    weights = seeded_normal(seed, "energy-probe", i2_flat.shape[0])
    return float(np.dot(i2_flat, weights) / np.sqrt(i2_flat.shape[0]))
