"""The meta-data arrays filled by the inspection phase.

Section III-B: "in the place of the original subroutine calls, we
insert operations that store the status of the execution into custom
meta-data arrays ... the location in this array is determined by the
location of each GEMM in the chain of GEMMs and the chain number."

The arrays are an index over the program, not a second copy of it: a
:class:`ChainMeta` per chain (L1) holds only what the inspection derives
from the GA distribution and the variant's chain height — the chain's
node, each GEMM's operand owners (indexed by L2), the length of its
serial segments, and the per-owner-node write segments of Figure 8.
The segments and their binary reduction tree (Section IV-A, Figure 4)
are arithmetic on the segment length and the chain length:
:func:`reduce_tree` is one cached tree per segment count.
:class:`Metadata` is one run's view: those records beside the chain IR
they index (the :class:`~repro.tce.subroutine.Subroutine` inspected), so
``md.gemm(L1, L2)`` is the IR's :class:`~repro.tce.subroutine.GemmOp`
and a chain's sorts are its :class:`~repro.tce.subroutine.SortWrite` s.
The PTG's symbolic expressions (domains, guards, placements,
priorities) all evaluate against this object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

from repro.core.variants import VariantSpec
from repro.ga.distribution import Segment
from repro.tce.subroutine import ChainSpec, GemmOp, Subroutine

__all__ = ["ReduceTree", "reduce_tree", "ChainMeta", "Metadata"]


class ReduceTree(NamedTuple):
    """A binary reduction over ``n`` segment outputs, by source number:
    segment ``i`` is source ``i``, step ``s`` is source ``n + s``."""

    #: the number of segments
    n: int
    #: the left (X) and right (Y) input source of each step
    left: tuple[int, ...]
    right: tuple[int, ...]
    #: the step consuming each source; the root, source ``2n - 2`` (the
    #: last step, or the one segment), has none
    consumer: tuple[int, ...]


@lru_cache(maxsize=None)
def reduce_tree(n_segments: int) -> ReduceTree:
    """The reduction tree over ``n_segments`` partial Cs, shared by every
    chain with that many: each round pairs the frontier left to right,
    and an odd one out is carried to the next round."""
    left: list[int] = []
    right: list[int] = []
    frontier = list(range(n_segments))
    while len(frontier) > 1:
        paired = len(frontier) // 2 * 2
        step = n_segments + len(left)
        left += frontier[0:paired:2]
        right += frontier[1:paired:2]
        frontier = [*range(step, step + paired // 2), *frontier[paired:]]
    consumer = [0] * (2 * n_segments - 2)
    for step, (x, y) in enumerate(zip(left, right)):
        consumer[x] = consumer[y] = step
    return ReduceTree(n_segments, tuple(left), tuple(right), tuple(consumer))


@dataclass(frozen=True, slots=True)
class ChainMeta:
    """What the inspection derives for one chain (L1).

    Serial segment ``s`` is ``seg_len`` GEMMs from position
    ``s * seg_len``, the last one cut at the chain's end, so GEMM ``L2``
    is in segment ``L2 // seg_len``; the segments' partial Cs meet in
    ``reduce_tree(n_segments)`` (``Metadata.trees[L1]``). The write
    segments tile the target range ``[write_segs[0].lo,
    write_segs[-1].hi)``. It names no IR object, so a memoised list of
    these keeps no structure alive.
    """

    node: int              # static round-robin placement (Section IV-D)
    #: find_last_segment_owner of each GEMM's A and B block, by L2
    a_owner: tuple[int, ...]
    b_owner: tuple[int, ...]
    #: GEMMs per serial segment: the variant's height (at most the
    #: chain's length), or the whole chain when it has none
    seg_len: int
    #: the target block's per-owner-node slices, in order (Figure 8)
    write_segs: tuple[Segment, ...]

    @property
    def n_segments(self) -> int:
        return -(-len(self.a_owner) // self.seg_len)


@dataclass
class Metadata:
    """One run's inspection product: the subroutine it inspected, its
    chains' :class:`ChainMeta` (``chains[L1]``, beside ``specs[L1]``,
    the IR chain) and the run's arrays, keyed by name (live handles —
    this is why Metadata itself is never cached)."""

    subroutine: Subroutine
    chains: list[ChainMeta]
    variant: VariantSpec
    n_nodes: int
    arrays: dict
    #: the InspectionCache the chains came from (None: a throwaway
    #: inspection); with the subroutine's structure token, the PTG keeps
    #: its validated task template there
    cache: object = field(default=None, repr=False, compare=False)

    #: populated in __post_init__
    specs: list[ChainSpec] = field(init=False)
    max_L1: int = field(init=False)
    P: int = field(init=False)
    max_write_segs: int = field(init=False)

    def __post_init__(self) -> None:
        self.specs = self.subroutine.chains
        self.max_L1 = len(self.chains)
        self.P = self.n_nodes
        self.max_write_segs = max(
            (len(c.write_segs) for c in self.chains), default=0
        )

    @cached_property
    def trees(self) -> list[ReduceTree]:
        """Each chain's reduction tree, ``trees[L1]``: looked up once per
        run, so a guard reads it without a call."""
        return [reduce_tree(chain.n_segments) for chain in self.chains]

    def gemm(self, L1: int, L2: int) -> GemmOp:
        return self.specs[L1].gemms[L2]

    def output_array(self) -> object:
        """This run's GA of the subroutine's output, which every chain's
        active sorts accumulate into (the inspector checks it)."""
        return self.arrays[self.subroutine.output.name]

    def priority(self, L1: int, offset: int) -> float:
        """The paper's expression: ``max_L1 - L1 + offset * P``."""
        if not self.variant.priorities:
            return 0.0
        return float(self.max_L1 - L1 + offset * self.P)

    def describe(self) -> str:
        return (
            f"{self.subroutine.name} [{self.variant.name}]: "
            f"{len(self.chains)} chains, {self.subroutine.n_gemms} GEMMs, "
            f"{self.n_nodes} nodes"
        )
