"""Ablations of the paper's Section IV design decisions.

Runs what ``repro ablations`` runs — the priority / prefetch offset,
the chain segmentation height, single vs parallel WRITE under growing
mutex cost, NXTVAL work stealing vs static distribution, the node
scheduler policy, and inter-node stealing on a skewed workload — and
asserts :func:`repro.experiments.ablations.ablation_claims`.
"""

import pytest

from benchmarks.conftest import assert_claims, write_report
from repro.experiments.ablations import ablation_claims, ablations_report, run_ablations
from repro.experiments.claims import informational


@pytest.mark.benchmark(group="ablations")
def test_ablations(benchmark, results_dir, scale):
    result = benchmark.pedantic(
        lambda: run_ablations(scale=scale), rounds=1, iterations=1
    )
    write_report(results_dir, f"ablations_{scale}.txt", ablations_report(result))
    assert_claims(ablation_claims(result), informational(scale))
