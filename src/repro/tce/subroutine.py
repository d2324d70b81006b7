"""The chain/GEMM/SORT/WRITE intermediate representation.

Both execution models consume the same IR, extracted once from the
(simulated) TCE loop nests:

- the **legacy CGP runtime** executes one :class:`ChainSpec` per stolen
  NXTVAL ticket — blocking GET of each GEMM's operands, the serial GEMM
  chain, then the IF-guarded SORT_4 + ADD_HASH_BLOCK sequence;
- the **PaRSEC port** feeds the same chains through its inspection
  phase into metadata arrays and executes them as a task graph.

Semantics of one chain (what REAL-mode numerics compute)::

    C(m, n) = sum over gemms g:  A_g(k, m)^T @ B_g(k, n)
    for each active sort j:
        target_j += sign_j * permute(C reshaped to the 4-index tile)

which is exactly the dgemm('T','N',...) + SORT_4 + ADD_HASH_BLOCK
structure the paper describes for ``icsd_t2_7()``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator

import numpy as np

from repro.tce.tensor import BlockTensor

__all__ = [
    "BlockRef",
    "BlockRefs",
    "GemmOp",
    "skew_chain",
    "SortWrite",
    "sort_4",
    "ChainSpec",
    "Subroutine",
]


@dataclass(frozen=True, slots=True)
class BlockRef:
    """A reference to one stored tile block of a tensor.

    Carries the resolved flat GA range so runtimes never re-derive
    layout arithmetic: ``[lo, hi)`` of the array named ``tensor.name``
    in the run, reshaped to ``shape``. ``tensor`` is the pure layout —
    the IR holds no array, so every run of a structure shares it.
    """

    tensor: BlockTensor
    key: tuple[int, ...]
    lo: int
    hi: int
    shape: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.hi - self.lo

    @property
    def nbytes(self) -> float:
        return 8.0 * self.size

    @classmethod
    def of(cls, tensor: BlockTensor, key: tuple[int, ...]) -> "BlockRef":
        lo, hi = tensor.block_range(key)
        return cls(tensor, key, lo, hi, tensor.block_shape(key))


class BlockRefs:
    """The one :class:`BlockRef` per (tensor, block key) of the IR a
    structure builder makes: every GEMM operand and SORT target naming a
    block shares it. The builder holds the table, not the tensor — a
    tensor holding its refs would close a reference cycle through each
    of them (a ref names its tensor), and a dropped structure must die
    by reference count."""

    __slots__ = ("_refs",)

    def __init__(self) -> None:
        self._refs: dict[tuple, BlockRef] = {}

    def __call__(self, tensor: BlockTensor, key: tuple[int, ...]) -> BlockRef:
        ref = self._refs.get((tensor, key))
        if ref is None:
            ref = self._refs[(tensor, key)] = BlockRef.of(tensor, key)
        return ref


@dataclass(frozen=True, slots=True)
class GemmOp:
    """One GEMM of a chain: ``C(m,n) += A(k,m)^T @ B(k,n)``.

    ``position`` is the paper's L2 — the slot in the chain.
    """

    position: int
    a: BlockRef
    b: BlockRef
    m: int
    n: int
    k: int

    @property
    def flops(self) -> float:
        return 2.0 * self.m * self.n * self.k


def skew_chain(
    gemms: list[GemmOp], chain_id: int, factor: int, period: int
) -> list[GemmOp]:
    """A chain lengthened by the imbalance knob.

    Every ``period``-th chain repeats its GEMM list ``factor`` times with
    positions renumbered, so a skewed chain does proportionally more
    flops through the exact same dataflow shape (each repeat gets its
    own READ tasks and contributes to the same accumulation). Other
    chains, and all of them when ``factor <= 1`` or ``period <= 0``,
    come back unchanged.
    """
    if factor <= 1 or period <= 0 or chain_id % period != 0:
        return gemms
    return [replace(gemm, position=i) for i, gemm in enumerate(gemms * factor)]


@dataclass(frozen=True, slots=True)
class SortWrite:
    """One of the four IF-guarded SORT_4 + ADD_HASH_BLOCK targets.

    ``guard`` is the evaluated IF predicate (e.g. ``p3b <= p4b and
    h1b <= h2b``); inactive targets exist in the IR (the original code
    contains all four branches) but move no data. ``perm`` permutes the
    axes of the chain output reshaped to its 4-index tile; ``sign``
    carries the antisymmetry factor.
    """

    sort_index: int
    guard: bool
    perm: tuple[int, ...]
    sign: float
    target: BlockRef


def sort_4(tile: np.ndarray, sort: SortWrite) -> np.ndarray:
    """The SORT_4 numerics, flattened: ``sign * permute(tile)`` — the one
    spelling the legacy chain executor, the PTG bodies and the DTD
    bodies share."""
    return (sort.sign * np.transpose(tile, sort.perm)).reshape(-1)


@dataclass(frozen=True, slots=True)
class ChainSpec:
    """One GEMM chain — the original code's unit of stolen work.

    ``chain_id`` is the paper's L1. ``key`` is the driving tile tuple
    ``(p3b, p4b, h1b, h2b)``; ``tile_shape`` its per-axis sizes, so the
    chain output C is an ``(m, n) = (sp3*sp4, sh1*sh2)`` matrix.
    """

    chain_id: int
    key: tuple[int, int, int, int]
    tile_shape: tuple[int, int, int, int]
    gemms: tuple[GemmOp, ...]
    sort_writes: tuple[SortWrite, ...]
    level: int = 0

    @property
    def m(self) -> int:
        return self.tile_shape[0] * self.tile_shape[1]

    @property
    def n(self) -> int:
        return self.tile_shape[2] * self.tile_shape[3]

    @property
    def c_size(self) -> int:
        p3, p4, h1, h2 = self.tile_shape  # m * n, without their two calls
        return p3 * p4 * h1 * h2

    @property
    def length(self) -> int:
        """Number of GEMMs (the chain height of Section IV-A)."""
        return len(self.gemms)

    @property
    def active_sorts(self) -> tuple[SortWrite, ...]:
        """The sorts whose IF predicate evaluated true (1, 2, or 4)."""
        return tuple(sw for sw in self.sort_writes if sw.guard)

    @property
    def flops(self) -> float:
        return sum(g.flops for g in self.gemms)


class Subroutine:
    """One TCE-generated subroutine: a named bag of chains.

    The chains are in original program order (the loop-nest order), so
    ``chain_id`` doubles as the priority parameter L1 of Section IV-C.
    ``inputs`` and ``output`` are the tensors (by name and layout) the
    chains may read and the one they accumulate into.
    """

    def __init__(
        self,
        name: str,
        chains: list[ChainSpec],
        inputs: list[BlockTensor],
        output: BlockTensor,
        level: int = 0,
        structure_token: tuple | None = None,
    ) -> None:
        self.name = name
        self.chains = chains
        self.inputs = inputs
        self.output = output
        self.level = level
        #: hashable fingerprint of everything the chain *structure* depends
        #: on (term spec + orbital space + symmetry filter + skew; not the
        #: seed, which only draws the data). Two subroutines with equal
        #: tokens have identical chain IR, so inspection results keyed on
        #: (token, n_nodes, chain height) and task templates keyed on
        #: (token, n_nodes, variant) can be shared across runs. None
        #: disables such sharing.
        self.structure_token = structure_token

    def __iter__(self) -> Iterator[ChainSpec]:
        return iter(self.chains)

    @property
    def n_chains(self) -> int:
        return len(self.chains)

    @property
    def n_gemms(self) -> int:
        return sum(chain.length for chain in self.chains)

    @property
    def total_flops(self) -> float:
        return sum(chain.flops for chain in self.chains)

    @cached_property
    def max_chain_length(self) -> int:
        return max((chain.length for chain in self.chains), default=0)

    def describe(self) -> str:
        """One-line workload summary for logs and reports."""
        return (
            f"{self.name}: {self.n_chains} chains, {self.n_gemms} GEMMs "
            f"(max chain {self.max_chain_length}), "
            f"{self.total_flops / 1e9:.2f} GF"
        )
