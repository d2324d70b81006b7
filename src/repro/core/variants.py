"""The algorithmic variants of Section IV-A / V.

The paper's five timed variants::

    v1. GEMMs in a serial chain; SORTs and WRITEs parallel; priorities.
    v2. GEMMs and SORTs parallel; one WRITE; NO priorities.
    v3. GEMMs, SORTs, and WRITEs all parallel; priorities.
    v4. GEMMs and SORTs parallel; one WRITE; priorities.
    v5. GEMMs parallel; one SORT and one WRITE; priorities.

plus the generalized *segment height*: "the height of the shorter
chains can vary from one (for maximum parallelism) to the height of the
original chain (for maximum locality). In this paper we consider the
two extreme cases." — ``segment_height=None`` is the original chain,
``1`` the fully parallel form, and intermediate values feed the
segmentation ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.util.errors import ConfigurationError

__all__ = [
    "GEMM_OFFSET",
    "VariantSpec",
    "V1",
    "V2",
    "V3",
    "V4",
    "V5",
    "PAPER_VARIANTS",
    "variant_by_name",
]

#: priority offset of a GEMM task, the paper's "+1 for GEMMs" (Section
#: IV-C); reads get ``VariantSpec.read_offset``, which the ablations vary
GEMM_OFFSET = 1


@dataclass(frozen=True)
class VariantSpec:
    """One point in the paper's variant space."""

    name: str
    #: GEMMs per serial segment: None = whole chain (v1), 1 = fully
    #: parallel (v2-v5), otherwise an intermediate height.
    segment_height: Optional[int]
    #: True: one SORT task per chain doing all active SORT_4 calls
    #: serially with accumulation into a master matrix (Figure 5 / v5).
    #: False: one SORT_i task per active IF branch (Figure 6-7).
    fused_sort: bool
    #: True: one WRITE_C per chain (per GA owner segment, Figure 8);
    #: False: one WRITE_C_i per active sort (Figure 7).
    single_write: bool
    #: Assign task priorities decreasing with the chain number
    #: (Section IV-C); False reproduces v2's behaviour.
    priorities: bool
    #: Priority offset of a read: the largest, so that "there is a data
    #: prefetching pipeline of depth 5*P".
    read_offset: int = 5

    def __post_init__(self) -> None:
        if self.segment_height is not None and self.segment_height < 1:
            raise ConfigurationError(
                f"segment_height must be >= 1 or None, got {self.segment_height}"
            )
        if self.fused_sort and not self.single_write:
            raise ConfigurationError(
                "a fused SORT produces one master matrix; it requires the "
                "single-WRITE organization (the paper's Figure 5)"
            )
        if self.read_offset < 0:
            raise ConfigurationError("priority offsets must be >= 0")

    def with_overrides(self, **kwargs) -> "VariantSpec":
        """A modified copy (ablation sweeps)."""
        return replace(self, **kwargs)

    def describe(self) -> str:
        gemm = (
            "serial chain"
            if self.segment_height is None
            else ("parallel" if self.segment_height == 1 else f"segments of {self.segment_height}")
        )
        sort = "one SORT" if self.fused_sort else "parallel SORTs"
        write = "one WRITE" if self.single_write else "parallel WRITEs"
        prio = "priorities" if self.priorities else "no priorities"
        return f"{self.name}: GEMMs {gemm}, {sort}, {write}, {prio}"


V1 = VariantSpec("v1", segment_height=None, fused_sort=False, single_write=False, priorities=True)
V2 = VariantSpec("v2", segment_height=1, fused_sort=False, single_write=True, priorities=False)
V3 = VariantSpec("v3", segment_height=1, fused_sort=False, single_write=False, priorities=True)
V4 = VariantSpec("v4", segment_height=1, fused_sort=False, single_write=True, priorities=True)
V5 = VariantSpec("v5", segment_height=1, fused_sort=True, single_write=True, priorities=True)

PAPER_VARIANTS: dict[str, VariantSpec] = {v.name: v for v in (V1, V2, V3, V4, V5)}


def variant_by_name(name: str) -> VariantSpec:
    """Look up one of the paper's variants by name ('v1'..'v5')."""
    try:
        return PAPER_VARIANTS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown variant {name!r}; choose from {sorted(PAPER_VARIANTS)}"
        ) from None
