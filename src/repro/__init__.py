"""repro — "PaRSEC in Practice" (CLUSTER 2015), reproduced in Python.

A reproduction of Danalis, Jagode, Bosilca, Dongarra: "PaRSEC in
Practice: Optimizing a Legacy Chemistry Application through Distributed
Task-Based Execution" (IEEE CLUSTER 2015). See README.md for a guide,
DESIGN.md for the system inventory, EXPERIMENTS.md for measured-vs-paper
results.

The top level holds the one-call entry point and what a call passes
it; every other name has one path, the module that defines it:

- :mod:`repro.sim` — the discrete-event machine
- :mod:`repro.ga` — the Global Arrays substrate
- :mod:`repro.tce` — the CCSD workload generators
- :mod:`repro.workloads` — the workload SDK and registry
- :mod:`repro.legacy` — the original execution model
- :mod:`repro.parsec` — the PTG runtime (and the contrasted DTD model)
- :mod:`repro.core` — the CCSD-over-PaRSEC port and its five variants
- :mod:`repro.analysis` — trace metrics and rendering
- :mod:`repro.obs` — metrics registry and structured run reports
- :mod:`repro.experiments` — the paper's experiments
- :mod:`repro.serve` — the job service

The one-call entry point is :func:`repro.run`::

    import repro
    result = repro.run("t2_7:tiny", runtime="parsec", variant=repro.V5)
    print(result.summary())
    print(result.report.to_json_line())
"""

from repro.core.api import RunConfig, run
from repro.core.variants import PAPER_VARIANTS, V1, V2, V3, V4, V5, variant_by_name
from repro.parsec.stealing import StealPolicy
from repro.sim.cluster import DataMode

__version__ = "1.0.0"

__all__ = [
    "run",
    "RunConfig",
    "StealPolicy",
    "DataMode",
    "PAPER_VARIANTS",
    "V1",
    "V2",
    "V3",
    "V4",
    "V5",
    "variant_by_name",
    "__version__",
]
