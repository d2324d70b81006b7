"""One full CCSD iteration: seven barrier-separated work levels.

Section III-A: the TCE generates "multiple (more than 60) sub-kernels"
whose work "is divided into seven different levels and there is an
explicit synchronization step between those levels. This implies that
the task-stealing model applies only within each level."

:class:`CcsdStructure` assembles a representative iteration — fourteen
contraction terms of ring / ladder / one-index type spread over seven
levels, all accumulating into the shared i2 residual. The t2_7 scenario
the rest of the reproduction grew around is exactly one of those
sub-kernels; this workload restores the surrounding iteration.

Each level *merges* the chains of its (heterogeneous) terms into one
:class:`~repro.tce.subroutine.Subroutine`, so a single PTG carries
cross-subroutine dependencies: ring and ladder terms share operand
tensors through the builder's pool (their READ tasks contend for the
same GA owners), every term accumulates into the shared ``i2``
residual (their WRITE tasks serialize on the same block mutexes), and
the chain priorities interleave across terms. Levels execute under a
barrier, matching the legacy application's synchronization structure —
and the scope the paper gives for task stealing ("only within each
level"). The unmerged terms stay available (``subroutines``) for the
mixed legacy/PaRSEC integration driver, which ports kernel by kernel.
"""

from __future__ import annotations

import dataclasses

from repro.tce.orbital_space import OrbitalSpace
from repro.tce.reference import compute_iteration_reference
from repro.tce.subroutine import Subroutine
from repro.tce.terms import TermBuilder, TermSpec
from repro.workloads.base import Structure

__all__ = ["DEFAULT_ITERATION_TERMS", "CcsdStructure"]

#: A representative sub-kernel table: ring terms ('hp'), hole and
#: particle ladders ('hh'/'pp'), and cheap one-index terms, two per
#: level across the seven levels. icsd_t2_7 sits at its real spot as a
#: ring term.
DEFAULT_ITERATION_TERMS: tuple[TermSpec, ...] = (
    TermSpec("icsd_t2_1", "h", level=0),
    TermSpec("icsd_t2_2", "hh", level=0),
    TermSpec("icsd_t2_3", "hp", level=1),
    TermSpec("icsd_t2_4", "p", level=1),
    TermSpec("icsd_t2_5", "hh", level=2),
    TermSpec("icsd_t2_6", "hp", level=2),
    TermSpec("icsd_t2_7", "hp", level=3),
    TermSpec("icsd_t2_8", "pp", level=3),
    TermSpec("icsd_t2_9", "p", level=4),
    TermSpec("icsd_t2_10", "hp", level=4),
    TermSpec("icsd_t2_11", "hh", level=5),
    TermSpec("icsd_t2_12", "h", level=5),
    TermSpec("icsd_t2_13", "pp", level=6),
    TermSpec("icsd_t2_14", "hp", level=6),
)


def _merge_level(level_index: int, members: list[Subroutine]) -> Subroutine:
    """One level's terms fused into a single subroutine.

    Chain ids are renumbered densely across the member terms (the PTG's
    L1 domain and the legacy NXTVAL ticket sequence both need a dense
    range); each chain keeps its block references, so GEMMs from
    different terms resolve to their own operand arrays through the
    per-GEMM array names the inspector records.
    """
    chains = []
    for sub in members:
        chains.extend(sub.chains)
    chains = [
        dataclasses.replace(chain, chain_id=i) for i, chain in enumerate(chains)
    ]
    inputs = []
    seen = set()
    for sub in members:
        for tensor in sub.inputs:
            if id(tensor) not in seen:
                seen.add(id(tensor))
                inputs.append(tensor)
    member_tokens = tuple(sub.structure_token for sub in members)
    return Subroutine(
        name=f"ccsd_L{level_index}",
        chains=chains,
        inputs=inputs,
        output=members[0].output,
        level=level_index,
        structure_token=(
            ("ccsd-level", level_index) + member_tokens
            if all(tok is not None for tok in member_tokens)
            else None
        ),
    )


class CcsdStructure(Structure):
    """Tensors, terms and per-level chain IR of one CCSD iteration."""

    def __init__(
        self,
        space: OrbitalSpace,
        skew_factor: int = 1,
        skew_period: int = 0,
    ) -> None:
        builder = TermBuilder(space, skew_factor=skew_factor, skew_period=skew_period)
        self.space = space
        #: the terms in table order, unmerged (the integration driver's
        #: kernels)
        self.subroutines = tuple(
            builder.build(spec) for spec in DEFAULT_ITERATION_TERMS
        )
        self.i2 = self.output = builder.i2
        self.tensors = tuple(builder.tensors.values())
        self.name = "ccsd_iteration"
        grouped: list[list[Subroutine]] = [
            [] for _ in range(1 + max(s.level for s in self.subroutines))
        ]
        for subroutine in self.subroutines:
            grouped[subroutine.level].append(subroutine)
        self.levels = tuple(
            _merge_level(index, members)
            for index, members in enumerate(grouped)
            if members
        )

    def subroutine(self, name: str) -> Subroutine:
        for sub in self.subroutines:
            if sub.name == name:
                return sub
        raise KeyError(f"no subroutine named {name!r} in this iteration")

    def reference(self, arrays: dict):
        return compute_iteration_reference(self.subroutines, arrays)

    def describe(self) -> str:
        return (
            f"CCSD iteration: {len(self.subroutines)} sub-kernels over "
            f"{len(self.levels)} levels, {self.n_gemms} GEMMs total"
        )
