"""Figures 10 & 11: execution traces of v4 (priorities) vs v2 (none).

Reproduces the trace experiment at 7 worker threads per node as
``repro traces`` prints it and asserts the paper's reading
(:func:`repro.experiments.traces.fig10_11_claims`): v2 "has too much
idle time in the beginning" because the un-prioritized READ tasks flood
the network, while v4's chain-decreasing priorities overlap
communication with GEMMs.
"""

import pytest

from benchmarks.conftest import assert_claims, write_report
from repro.experiments.claims import informational
from repro.experiments.traces import fig10_11_claims, fig10_11_report, run_fig10_11


@pytest.mark.benchmark(group="traces")
def test_fig10_11_v4_vs_v2_traces(benchmark, results_dir, scale):
    v4, v2 = benchmark.pedantic(
        lambda: run_fig10_11(scale=scale), rounds=1, iterations=1
    )
    write_report(results_dir, f"fig10_11_{scale}.txt", fig10_11_report(v4, v2))
    assert_claims(fig10_11_claims(v4, v2), informational(scale))
