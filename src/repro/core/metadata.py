"""The meta-data arrays filled by the inspection phase.

Section III-B: "in the place of the original subroutine calls, we
insert operations that store the status of the execution into custom
meta-data arrays ... the location in this array is determined by the
location of each GEMM in the chain of GEMMs and the chain number."

:class:`Metadata` is those arrays, structured: per chain (L1) the GEMM
list with resolved GA ranges and owner nodes, the serial-segment
decomposition and its reduction tree, the active SORT branches, the
single target block all active sorts write to, and the per-owner-node
write segments of Figure 8. The PTG's symbolic expressions (domains,
guards, placements, priorities) all evaluate against this object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.variants import VariantSpec

__all__ = [
    "GemmMeta",
    "SegmentMeta",
    "ReduceMeta",
    "SortMeta",
    "WriteSegMeta",
    "ChainMeta",
    "Metadata",
]


@dataclass(frozen=True, slots=True)
class GemmMeta:
    """One GEMM slot: resolved operand ranges, owners, and shape.

    ``a_array`` / ``b_array`` name the GA each operand lives in. They
    are plain strings — never live array handles — so cached inspection
    entries stay pure data, shared by every run of the structure.
    Workloads whose chains mix operand arrays (a stencil reading both
    ``u`` and ``u_next``) need the resolution to be per GEMM, not per
    chain.
    """

    position: int          # L2
    seg_id: int            # which serial segment it belongs to
    pos_in_seg: int
    seg_len: int
    a_lo: int
    a_hi: int
    a_owner: int           # find_last_segment_owner(va, ...)
    b_lo: int
    b_hi: int
    b_owner: int
    m: int
    n: int
    k: int
    a_array: str
    b_array: str


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
class SortMeta:
    """One of the four SORT_4 branches with its evaluated IF predicate."""

    sort_index: int
    active: bool
    perm: tuple[int, int, int, int]
    sign: float


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


@dataclass
class ChainMeta:
    """Everything the PTG needs to know about one chain (L1)."""

    chain_id: int
    node: int              # static round-robin placement (Section IV-D)
    key: tuple[int, int, int, int]
    tile_shape: tuple[int, int, int, int]
    m: int
    n: int
    gemms: list[GemmMeta]
    segments: list[SegmentMeta]
    reduces: list[ReduceMeta]
    #: for each reduce input source, the step consuming it (root excluded)
    consumer_of: dict[tuple[str, int], int]
    sorts: list[SortMeta]
    target_lo: int
    target_hi: int
    write_segs: list[WriteSegMeta]
    #: GA name the active sorts accumulate into
    target_array: str
    #: memoized root_producer() result — PTG guards and param maps call
    #: it for every dep evaluation, and it is pure in the static fields
    _root_producer: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def c_size(self) -> int:
        return self.m * self.n

    @property
    def length(self) -> int:
        return len(self.gemms)

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def active_sorts(self) -> list[SortMeta]:
        return [s for s in self.sorts if s.active]

    @property
    def root_step(self) -> Optional[int]:
        for reduce in self.reduces:
            if reduce.is_root:
                return reduce.step
        return None

    def root_producer(self) -> tuple[str, tuple]:
        """(class name, params) of the task producing the final C."""
        producer = self._root_producer
        if producer is None:
            if self.n_segments == 1:
                producer = ("GEMM", (self.chain_id, self.segments[0].last_position))
            else:
                producer = ("REDUCE", (self.chain_id, self.root_step))
            self._root_producer = producer
        return producer


@dataclass
class Metadata:
    """The inspection product: all chains plus global run facts."""

    chains: list[ChainMeta]
    variant: VariantSpec
    n_nodes: int
    #: every GA the chains touch, keyed by array name; resolved per run
    #: (live handles — this is why Metadata itself is never cached)
    arrays: dict
    subroutine_name: str = ""
    #: barrier-separated level this metadata describes (0 for
    #: single-level workloads); folded into write tags so contributions
    #: from different levels never alias in ordered-accumulation logs
    level: int = 0
    #: the subroutine's structure token and the InspectionCache the
    #: chains came from (None: a throwaway inspection); with both, the
    #: PTG keeps its validated task template in the cache
    structure_token: Optional[tuple] = None
    cache: object = field(default=None, repr=False, compare=False)

    #: populated in __post_init__
    max_L1: int = field(init=False)
    P: int = field(init=False)
    max_write_segs: int = field(init=False)

    def __post_init__(self) -> None:
        self.max_L1 = len(self.chains)
        self.P = self.n_nodes
        self.max_write_segs = max(
            (len(c.write_segs) for c in self.chains), default=0
        )

    def chain(self, L1: int) -> ChainMeta:
        return self.chains[L1]

    def gemm(self, L1: int, L2: int) -> GemmMeta:
        return self.chains[L1].gemms[L2]

    def a_array_of(self, gemm: GemmMeta) -> object:
        """The GA backing a GEMM's A operand."""
        return self.arrays[gemm.a_array]

    def b_array_of(self, gemm: GemmMeta) -> object:
        """The GA backing a GEMM's B operand."""
        return self.arrays[gemm.b_array]

    def target_array_of(self, chain: ChainMeta) -> object:
        """The GA a chain's write segments accumulate into."""
        return self.arrays[chain.target_array]

    def priority(self, L1: int, offset: int) -> float:
        """The paper's expression: ``max_L1 - L1 + offset * P``."""
        if not self.variant.priorities:
            return 0.0
        return float(self.max_L1 - L1 + offset * self.P)

    @property
    def n_gemms(self) -> int:
        return sum(c.length for c in self.chains)

    def describe(self) -> str:
        return (
            f"{self.subroutine_name} [{self.variant.name}]: "
            f"{len(self.chains)} chains, {self.n_gemms} GEMMs, "
            f"{self.n_nodes} nodes"
        )
