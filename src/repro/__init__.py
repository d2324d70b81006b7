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

from importlib import import_module

__version__ = "1.0.0"

#: each top-level name -> the module that defines it, imported on first
#: use: ``import repro.serve.client`` loads neither numpy nor the simulator
_LAZY = {
    "run": "repro.core.api",
    "RunConfig": "repro.core.api",
    "StealPolicy": "repro.parsec.stealing",
    "DataMode": "repro.sim.cluster",
    "PAPER_VARIANTS": "repro.core.variants",
    "V1": "repro.core.variants",
    "V2": "repro.core.variants",
    "V3": "repro.core.variants",
    "V4": "repro.core.variants",
    "V5": "repro.core.variants",
    "variant_by_name": "repro.core.variants",
}

__all__ = [*_LAZY, "__version__"]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value  # the next lookup skips this hook
    return value
