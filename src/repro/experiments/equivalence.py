"""The numeric-equivalence experiment (Section IV-A).

"We note that the final result (correlation energy) computed by the
different variations matched up to the 14th digit."

Runs the same seeded workload through the dense reference, the legacy
runtime, and all five PaRSEC variants — real data end to end — and
compares the correlation-energy probe. Each implementation is one
independent cell of :data:`EQUIVALENCE` (``jobs > 1`` fans them out
over worker processes; the energies are identical either way).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core import api
from repro.core.variants import PAPER_VARIANTS
from repro.experiments.calibration import cell_config
from repro.experiments.claims import Experiment, ShapeCheck, render_claims
from repro.experiments.sweep import SweepCell
from repro.sim.cluster import DataMode
from repro.tce.reference import correlation_energy

__all__ = [
    "EQUIVALENCE",
    "EquivalenceResult",
    "equivalence_claims",
    "equivalence_report",
]


@dataclass
class EquivalenceResult:
    """Correlation energies per implementation, plus agreement stats."""

    energies: dict[str, float]
    max_relative_spread: float

    def agrees_to_digits(self) -> float:
        """How many decimal digits all implementations agree to."""
        if self.max_relative_spread == 0.0:
            return 16.0
        return -math.log10(self.max_relative_spread)


def _equivalence_cell(
    name: str, scale: str, n_nodes: int, cores_per_node: int, seed: int, workload: str
) -> float:
    """One implementation's correlation energy on a fresh cluster; the
    "reference" is the workload's own dense-NumPy
    :meth:`reference_values`."""
    config = cell_config(cores_per_node, n_nodes, DataMode.REAL, seed=seed)
    workload_obj = api.build(workload, config, scale=scale)
    if name == "reference":
        return correlation_energy(workload_obj.reference_values())
    api.run(workload_obj, runtime=name, config=config)
    return correlation_energy(workload_obj.output.flat_values())


def _equivalence_cells(**shared) -> list[SweepCell]:
    names = ["reference", "original"] + sorted(PAPER_VARIANTS)
    return [
        SweepCell(key=(name,), fn=_equivalence_cell, kwargs=dict(name=name, **shared))
        for name in names
    ]


def _equivalence_reduce(results, **_) -> EquivalenceResult:
    energies = {name: energy for (name,), energy in results.items()}
    center = energies["reference"]
    spread = max(abs(v - center) for v in energies.values()) / max(abs(center), 1e-300)
    return EquivalenceResult(energies=energies, max_relative_spread=spread)


def equivalence_claims(result: EquivalenceResult) -> list[ShapeCheck]:
    """The paper's 14-digit agreement, held to 13 digits."""
    digits = result.agrees_to_digits()
    detail = f"{digits:.1f} digits (paper claims 14)"
    return [ShapeCheck("agreement to >= 13 digits", digits >= 13, detail)]


def equivalence_report(result: EquivalenceResult) -> str:
    """Each implementation's correlation energy, and the claim."""
    energies = [
        f"{name:10s} {energy:+.15e}" for name, energy in sorted(result.energies.items())
    ]
    return "\n".join(energies + [render_claims(equivalence_claims(result))])


#: the correlation energy seven ways, on any registered workload
EQUIVALENCE = Experiment(
    name="equivalence",
    cells=_equivalence_cells,
    reduce=_equivalence_reduce,
    report=equivalence_report,
    claims=equivalence_claims,
    defaults=dict(scale="small", n_nodes=8, cores_per_node=2, seed=7, workload="t2_7"),
)
