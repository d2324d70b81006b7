"""Generic TCE contraction terms.

``icsd_t2_7`` is one of "more than 60 sub-kernels" the TCE generates
for the iterative CCSD equations (Section III-A). The sub-kernels share
one shape — IF-guarded chains of GEMMs over tile blocks, four guarded
SORT_4/ADD_HASH_BLOCK targets — and differ in *which* index spaces are
contracted: ring terms contract one hole and one particle index,
ladder terms contract two holes or two particles, and one-index terms
contract a single tile index.

:class:`TermSpec` names a term by its contracted index kinds;
:meth:`TermBuilder.build` produces a full
:class:`~repro.tce.subroutine.Subroutine` for it, declaring (or reusing)
the operand tensors:

- A operand: ``contraction + 'pp'`` indexed ``(k..., p3, p4)``,
- B operand: ``contraction + 'hh'`` indexed ``(k..., h1, h2)``,
- output: the shared ``i2(p3, p4, h1, h2)`` residual tensor.

so every term lowers to the same ``C(m,n) += A(k,m)^T B(k,n)`` chains
the paper's PTG executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from repro.tce.orbital_space import OrbitalSpace
from repro.tce.reference import compute_subroutine_reference
from repro.tce.subroutine import (
    BlockRefs,
    ChainSpec,
    GemmOp,
    SortWrite,
    Subroutine,
    skew_chain,
)
from repro.tce.tensor import BlockLayout, BlockTensor
from repro.util.errors import ConfigurationError
from repro.workloads.base import Structure

__all__ = [
    "TermSpec",
    "TermBuilder",
    "TermStructure",
    "SORT_VARIANTS",
    "SYMMETRY_FILTER",
]

#: whether the TCE-style spin/spatial-symmetry IF voids odd-parity loop
#: iterations (what the inspection phase has to discover). Read when a
#: term is built, and recorded in its ``structure_token``.
SYMMETRY_FILTER = True

#: axis permutations and antisymmetry signs of the four SORT_4 branches
SORT_VARIANTS: tuple[tuple[tuple[int, int, int, int], float], ...] = (
    ((0, 1, 2, 3), +1.0),
    ((0, 1, 3, 2), -1.0),
    ((1, 0, 2, 3), -1.0),
    ((1, 0, 3, 2), +1.0),
)


@dataclass(frozen=True)
class TermSpec:
    """One TCE sub-kernel: a name, contracted kinds, and a work level."""

    name: str
    #: contracted index kinds, e.g. 'hp' (ring), 'pp'/'hh' (ladders),
    #: 'h' or 'p' (one-index terms)
    contraction: str
    #: which of the seven barrier-separated levels it belongs to
    level: int = 0

    def __post_init__(self) -> None:
        if not (1 <= len(self.contraction) <= 2):
            raise ConfigurationError(
                f"{self.name}: contraction must have 1 or 2 indices, "
                f"got {self.contraction!r}"
            )
        if any(kind not in "hp" for kind in self.contraction):
            raise ConfigurationError(
                f"{self.name}: contraction kinds must be 'h'/'p', "
                f"got {self.contraction!r}"
            )

    @property
    def a_dims(self) -> str:
        return self.contraction + "pp"

    @property
    def b_dims(self) -> str:
        return self.contraction + "hh"


class TermBuilder:
    """Builds term subroutines over a shared tensor pool.

    Operand tensors are keyed by their dimension signature so terms
    with the same contraction reuse storage (as the real integral and
    amplitude arrays are shared between sub-kernels); the ``i2`` output
    is one tensor all terms accumulate into. Everything it builds is
    pure structure: ``tensors`` lists the pool in creation order, each
    operand drawn from the seeded stream named after it, ``i2`` at zero.
    """

    def __init__(
        self,
        space: OrbitalSpace,
        skew_factor: int = 1,
        skew_period: int = 0,
    ) -> None:
        if skew_factor < 1:
            raise ConfigurationError(f"skew_factor must be >= 1, got {skew_factor}")
        if skew_period < 0:
            raise ConfigurationError(f"skew_period must be >= 0, got {skew_period}")
        self.space = space
        #: imbalance knob: chains whose id is a multiple of
        #: ``skew_period`` repeat their GEMM list ``skew_factor`` times.
        #: With ``skew_period == n_nodes`` every lengthened chain lands
        #: on node 0 under the round-robin placement — the worst case
        #: for static distribution, the showcase for work stealing.
        #: ``skew_period == 0`` (default) disables skew entirely.
        self.skew_factor = skew_factor
        self.skew_period = skew_period
        #: name -> tensor, in creation order
        self.tensors: dict[str, BlockTensor] = {}
        #: the IR's one BlockRef per (tensor, block), across every term
        self.block_ref = BlockRefs()
        self.i2 = self._tensor("i2", "pphh", fill=False)

    # ------------------------------------------------------------------
    def _tensor(self, name: str, dims: str, fill: bool = True) -> BlockTensor:
        key = f"{name}:{dims}"
        tensor = self.tensors.get(key)
        if tensor is None:
            tensor = BlockTensor(
                key, BlockLayout(self.space, dims), stream=key if fill else None
            )
            self.tensors[key] = tensor
        return tensor

    def operand_tensors(self, spec: TermSpec) -> tuple[BlockTensor, BlockTensor]:
        """The (A, B) tensors a term contracts (declared on demand)."""
        a = self._tensor("v", spec.a_dims)
        b = self._tensor("t", spec.b_dims)
        return a, b

    # ------------------------------------------------------------------
    def build(self, spec: TermSpec) -> Subroutine:
        """Generate the full chain IR for one term."""
        space = self.space
        symmetry_filter = SYMMETRY_FILTER
        a_tensor, b_tensor = self.operand_tensors(spec)
        contr_ranges = [range(len(space.tiles(kind))) for kind in spec.contraction]
        chains: list[ChainSpec] = []
        chain_id = 0
        n_p = space.n_particle_tiles
        n_h = space.n_hole_tiles
        for p3b in range(n_p):
            for p4b in range(p3b, n_p):
                for h1b in range(n_h):
                    for h2b in range(h1b, n_h):
                        key = (p3b, p4b, h1b, h2b)
                        m = space.particles[p3b].size * space.particles[p4b].size
                        n = space.holes[h1b].size * space.holes[h2b].size
                        gemms: list[GemmOp] = []
                        position = 0
                        for contr_key in product(*contr_ranges):
                            # the spin/spatial-symmetry IF around each
                            # innermost body
                            if symmetry_filter and (sum(contr_key) + sum(key)) % 2:
                                continue
                            k = 1
                            for kind, index in zip(spec.contraction, contr_key):
                                k *= space.tiles(kind)[index].size
                            gemms.append(
                                GemmOp(
                                    position=position,
                                    a=self.block_ref(a_tensor, contr_key + (p3b, p4b)),
                                    b=self.block_ref(b_tensor, contr_key + (h1b, h2b)),
                                    m=m,
                                    n=n,
                                    k=k,
                                )
                            )
                            position += 1
                        if not gemms:
                            continue
                        gemms = skew_chain(
                            gemms, chain_id, self.skew_factor, self.skew_period
                        )
                        chains.append(
                            ChainSpec(
                                chain_id=chain_id,
                                key=key,
                                tile_shape=(
                                    space.particles[p3b].size,
                                    space.particles[p4b].size,
                                    space.holes[h1b].size,
                                    space.holes[h2b].size,
                                ),
                                gemms=tuple(gemms),
                                sort_writes=self._sort_writes(key),
                                level=spec.level,
                            )
                        )
                        chain_id += 1
        return Subroutine(
            name=spec.name,
            chains=chains,
            inputs=[a_tensor, b_tensor],
            output=self.i2,
            level=spec.level,
            structure_token=(
                spec.name,
                spec.contraction,
                spec.level,
                space.nocc,
                space.nvirt,
                space.tile_size,
                symmetry_filter,
                self.skew_factor,
                self.skew_period,
            ),
        )

    def _sort_writes(self, key: tuple[int, int, int, int]) -> tuple[SortWrite, ...]:
        p3b, p4b, h1b, h2b = key
        guards = (
            p3b <= p4b and h1b <= h2b,
            p3b <= p4b and h2b <= h1b,
            p4b <= p3b and h1b <= h2b,
            p4b <= p3b and h2b <= h1b,
        )
        target_keys = (
            (p3b, p4b, h1b, h2b),
            (p3b, p4b, h2b, h1b),
            (p4b, p3b, h1b, h2b),
            (p4b, p3b, h2b, h1b),
        )
        return tuple(
            SortWrite(
                sort_index=index,
                guard=guard,
                perm=perm,
                sign=sign,
                target=self.block_ref(self.i2, target_key),
            )
            for index, ((perm, sign), guard, target_key) in enumerate(
                zip(SORT_VARIANTS, guards, target_keys)
            )
        )


class TermStructure(Structure):
    """One contraction term as a workload: its chain IR over the pool.

    ``icsd_t2_7`` (:mod:`repro.tce.t2_7`) is the term the paper ports;
    ``va``/``tb`` are the term's operands and ``i2`` its output.
    """

    def __init__(
        self,
        space: OrbitalSpace,
        spec: TermSpec,
        skew_factor: int = 1,
        skew_period: int = 0,
    ) -> None:
        builder = TermBuilder(space, skew_factor=skew_factor, skew_period=skew_period)
        self.space = space
        self.subroutine = builder.build(spec)
        self.va, self.tb = builder.operand_tensors(spec)
        self.i2 = self.output = builder.i2
        self.name = self.subroutine.name
        self.tensors = tuple(builder.tensors.values())
        self.levels = (self.subroutine,)

    def reference(self, arrays: dict):
        return compute_subroutine_reference(self.subroutine, arrays)

    def describe(self) -> str:
        return self.subroutine.describe()
