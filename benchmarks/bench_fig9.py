"""Figure 9: execution time of original vs PaRSEC v1-v5, 32 nodes.

Regenerates the paper's central figure as ``repro fig9`` prints it and
asserts the shape claims of Section V
(:func:`repro.experiments.fig9.fig9_shape_checks`).
"""

import pytest

from benchmarks.conftest import assert_claims, write_report
from repro.experiments.claims import informational
from repro.experiments.fig9 import fig9_report, fig9_shape_checks, run_fig9


@pytest.mark.benchmark(group="fig9")
def test_fig9_full_sweep(benchmark, results_dir, scale):
    result = benchmark.pedantic(lambda: run_fig9(scale=scale), rounds=1, iterations=1)
    write_report(results_dir, f"fig9_{scale}.txt", fig9_report(result))
    assert_claims(fig9_shape_checks(result), informational(scale))
