"""The numeric-equivalence experiment (Section IV-A).

"We note that the final result (correlation energy) computed by the
different variations matched up to the 14th digit."

Runs the same seeded workload through the dense reference, the legacy
runtime, and all five PaRSEC variants — real data end to end — and
compares the correlation-energy probe. Each implementation is one
independent sweep cell, so the seven runs dispatch through
:class:`~repro.experiments.sweep.SweepExecutor` (``jobs > 1`` fans
them out over worker processes; the energies are identical either way).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core import api
from repro.core.variants import PAPER_VARIANTS
from repro.experiments.calibration import cell_config
from repro.experiments.sweep import SweepCell, SweepExecutor
from repro.sim.cluster import DataMode
from repro.tce.reference import correlation_energy

__all__ = ["EquivalenceResult", "run_equivalence"]


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
    name: str,
    scale: str,
    n_nodes: int,
    cores_per_node: int,
    seed: int,
    workload: str = "t2_7",
) -> float:
    """One implementation's correlation energy on a fresh cluster."""
    config = cell_config(cores_per_node, n_nodes, DataMode.REAL, seed=seed)
    workload_obj = api.build(workload, config, scale=scale)
    if name == "reference":
        return correlation_energy(workload_obj.reference_values())
    api.run(workload_obj, runtime=name, config=config)
    return correlation_energy(workload_obj.output.flat_values())


def run_equivalence(
    scale: str = "small",
    n_nodes: int = 8,
    cores_per_node: int = 2,
    seed: int = 7,
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    workload: str = "t2_7",
) -> EquivalenceResult:
    """Compute the correlation energy seven ways and compare.

    ``workload`` selects any registered workload; the "reference" cell
    is the workload's own dense-NumPy :meth:`reference_values`.
    """
    names = ["reference", "original"] + sorted(PAPER_VARIANTS)
    cells = [
        SweepCell(
            key=(name,),
            fn=_equivalence_cell,
            kwargs=dict(
                name=name,
                scale=scale,
                n_nodes=n_nodes,
                cores_per_node=cores_per_node,
                seed=seed,
                workload=workload,
            ),
        )
        for name in names
    ]
    executor = SweepExecutor(
        jobs=jobs, progress=progress, label=f"equivalence[{workload}:{scale}]"
    )
    results, _ = executor.run(cells)
    energies = {name: results[(name,)] for name in names}
    center = energies["reference"]
    spread = max(abs(v - center) for v in energies.values()) / max(
        abs(center), 1e-300
    )
    return EquivalenceResult(energies=energies, max_relative_spread=spread)
