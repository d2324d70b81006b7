"""The workload SDK: a general scenario interface over the chain IR.

See :mod:`repro.workloads.base` for the structure/bind split and the
bound workload every runtime executes, and :mod:`repro.workloads.registry`
for the string-addressable registry
(``repro.run(workload="rbgs:128x128")``). Built-ins: ``t2_7`` (the
paper's sub-kernel, :mod:`repro.tce.t2_7`), ``ccsd`` (a full seven-level
iteration, :mod:`repro.tce.cc_iteration`), and ``rbgs`` (a red-black
Gauss-Seidel tile stencil, :mod:`repro.workloads.rbgs`).
"""

from repro.workloads.base import BoundTensor, BoundWorkload, Structure
from repro.workloads.registry import (
    WorkloadSpec,
    build_workload,
    canonical_token,
    parse_workload_token,
    register_workload,
    workload_names,
    workload_spec,
)

__all__ = [
    "BoundTensor",
    "BoundWorkload",
    "Structure",
    "WorkloadSpec",
    "build_workload",
    "canonical_token",
    "parse_workload_token",
    "register_workload",
    "workload_names",
    "workload_spec",
]
