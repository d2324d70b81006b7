"""Figures 12 & 13: execution trace of the original NWChem code.

Figure 12's reading: "communication is interleaved with computation,
however it is not overlapped ... because it is not given a chance to do
so". Figure 13 zooms in: GET_HASH_BLOCK / write-back rectangles are
comparable in length to the GEMM rectangles. Writes the report
``repro traces`` prints for the original code and asserts
:func:`repro.experiments.traces.fig12_13_claims`.
"""

import pytest

from benchmarks.conftest import assert_claims, write_report
from repro.experiments.claims import informational
from repro.experiments.traces import fig12_13_claims, fig12_13_report, run_fig12_13


@pytest.mark.benchmark(group="traces")
def test_fig12_13_original_trace(benchmark, results_dir, scale):
    original = benchmark.pedantic(
        lambda: run_fig12_13(scale=scale), rounds=1, iterations=1
    )
    write_report(results_dir, f"fig12_13_{scale}.txt", fig12_13_report(original))
    assert_claims(fig12_13_claims(original), informational(scale))
