"""Section IV-A equivalence: all implementations agree to 14 digits.

"We note that the final result (correlation energy) computed by the
different variations matched up to the 14th digit."

Runs the dense reference, the legacy execution, and all five PaRSEC
variants with real data, as ``repro equivalence`` does, and asserts
:func:`repro.experiments.equivalence.equivalence_claims` at any scale.
"""

import pytest

from benchmarks.conftest import assert_claims, write_report
from repro.experiments.equivalence import (
    equivalence_claims,
    equivalence_report,
    run_equivalence,
)


@pytest.mark.benchmark(group="equivalence")
def test_correlation_energy_equivalence(benchmark, results_dir):
    # real-data mode: always at 'small' scale (the paper-scale tensors
    # would need ~40 GB of storage; the claim is scale-independent)
    result = benchmark.pedantic(
        lambda: run_equivalence(scale="small", n_nodes=8), rounds=1, iterations=1
    )
    write_report(results_dir, "equivalence.txt", equivalence_report(result))
    assert_claims(equivalence_claims(result))
