"""The meta-data arrays filled by the inspection phase.

Section III-B: "in the place of the original subroutine calls, we
insert operations that store the status of the execution into custom
meta-data arrays ... the location in this array is determined by the
location of each GEMM in the chain of GEMMs and the chain number."

The arrays are an index over the program, not a second copy of it: a
:class:`ChainMeta` per chain (L1) holds only what the inspection derives
from the GA distribution and the variant's chain height — the chain's
node, each GEMM's operand owners (indexed by L2), the serial-segment
decomposition and its reduction tree, and the per-owner-node write
segments of Figure 8 with the target range they tile. :class:`Metadata`
is one run's view: those records beside the chain IR they index (the
:class:`~repro.tce.subroutine.Subroutine` inspected), so ``md.gemm(L1,
L2)`` is the IR's :class:`~repro.tce.subroutine.GemmOp` and a chain's
sorts are its :class:`~repro.tce.subroutine.SortWrite` s. The PTG's
symbolic expressions (domains, guards, placements, priorities) all
evaluate against this object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.variants import VariantSpec
from repro.tce.subroutine import ChainSpec, GemmOp, Subroutine

__all__ = [
    "SegmentMeta",
    "ReduceMeta",
    "WriteSegMeta",
    "ChainMeta",
    "Metadata",
]


@dataclass(frozen=True, slots=True)
class SegmentMeta:
    """One serial mini-chain after segmentation (Section IV-A)."""

    seg_id: int
    start: int             # first GEMM position
    length: int

    @property
    def last_position(self) -> int:
        return self.start + self.length - 1


@dataclass(frozen=True, slots=True)
class ReduceMeta:
    """One node of the binary reduction tree over segment outputs.

    Sources are tagged ``('seg', seg_id)`` (a segment's final GEMM) or
    ``('red', step)`` (an earlier reduction step).
    """

    step: int
    left: tuple[str, int]
    right: tuple[str, int]
    is_root: bool


@dataclass(frozen=True, slots=True)
class WriteSegMeta:
    """One per-owner-node slice of the chain's target block (Figure 8)."""

    index: int
    node: int
    lo: int
    hi: int

    @property
    def size(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True, slots=True)
class ChainMeta:
    """What the inspection derives for one chain (L1).

    Every segment but the last is ``segments[0].length`` GEMMs long, so
    GEMM ``L2`` is in segment ``L2 // segments[0].length``. The reduce
    steps are in step order, the root last. It names no IR object, so a
    memoised list of these keeps no structure alive.
    """

    node: int              # static round-robin placement (Section IV-D)
    #: find_last_segment_owner of each GEMM's A and B block, by L2
    a_owner: tuple[int, ...]
    b_owner: tuple[int, ...]
    segments: tuple[SegmentMeta, ...]
    reduces: tuple[ReduceMeta, ...]
    #: for each reduce input source, the step consuming it (root excluded)
    consumer_of: dict[tuple[str, int], int]
    target_lo: int
    target_hi: int
    write_segs: tuple[WriteSegMeta, ...]


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
