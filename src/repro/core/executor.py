"""Running one subroutine over PaRSEC inside the simulated cluster.

:func:`run_ptg` is one pass of the Section III-B pipeline
(:func:`repro.core.api.ptg_pipeline`, then ``execute``) for a single
subroutine on an existing cluster. Whole-workload runs should go
through :func:`repro.run`, which adds multi-level sequencing,
validation, and reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import api
from repro.core.metadata import Metadata
from repro.core.variants import VariantSpec
from repro.parsec.runtime import ParsecResult
from repro.sim.cluster import Cluster
from repro.tce.subroutine import Subroutine

__all__ = ["CcsdRun", "run_ptg"]


@dataclass
class CcsdRun:
    """One complete PaRSEC execution of a subroutine."""

    variant: VariantSpec
    result: ParsecResult
    metadata: Metadata

    @property
    def execution_time(self) -> float:
        return self.result.execution_time

    def describe(self) -> str:
        return (
            f"{self.metadata.subroutine_name} over PaRSEC "
            f"[{self.variant.name}]: {self.result.n_tasks} tasks in "
            f"{self.execution_time:.3f}s (virtual)"
        )


def run_ptg(
    cluster: Cluster,
    subroutine: Subroutine,
    variant: VariantSpec,
    policy=None,
) -> CcsdRun:
    """The Section III-B pipeline: inspection phase → metadata arrays →
    PTG execution → control returns to the caller (with the output
    already accumulated in the target Global Array). ``policy`` selects
    the node scheduler discipline (default: the priority-aware
    scheduler the paper's experiments use)."""
    runtime, ptg, metadata = api.ptg_pipeline(
        cluster, subroutine, variant, api.RunConfig(policy=policy)
    )
    result = runtime.execute(ptg, metadata)
    result.variant = variant.name
    return CcsdRun(variant=variant, result=result, metadata=metadata)
