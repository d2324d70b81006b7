"""Hybrid execution: what accelerators do to the Figure 9 picture.

The paper's introduction motivates PaRSEC partly as "a robust path to
exploit hybrid computer architectures". This bench runs variant v5 with
0/1/2 accelerators per node across core counts and shows the classic
hybrid effect: GPUs demolish the compute time, so the bottleneck moves
to data movement (NIC + communication thread) — after which more GPUs
stop helping.
"""

import pytest

from benchmarks.conftest import write_report
from repro.analysis.report import format_table
from repro.core import api
from repro.core.variants import V5
from repro.experiments.calibration import cell_config
from repro.experiments.claims import informational


def run_point(cores: int, gpus: int, scale: str) -> float:
    config = cell_config(cores, gpus_per_node=gpus)
    return api.run(f"t2_7:{scale}", variant=V5, config=config).execution_time


@pytest.mark.benchmark(group="hybrid")
def test_hybrid_gpu_sweep(benchmark, results_dir, scale):
    core_counts = (1, 7, 15)
    gpu_counts = (0, 1, 2)

    def sweep():
        return {
            gpus: {cores: run_point(cores, gpus, scale) for cores in core_counts}
            for gpus in gpu_counts
        }

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        [f"{gpus} GPUs/node"] + [f"{times[gpus][c]:.3f}" for c in core_counts]
        for gpus in gpu_counts
    ]
    write_report(
        results_dir,
        f"hybrid_{scale}.txt",
        format_table(
            ["configuration"] + [f"{c} cores/node" for c in core_counts],
            rows,
            title="Hybrid execution: v5 with accelerators (virtual seconds)",
        ),
    )
    if informational(scale):
        return  # smoke run at reduced scale: report only
    # one GPU transforms the compute-bound 1-core configuration (>=4x)...
    assert times[1][1] < 0.25 * times[0][1]
    # ...but at 15 cores the run is data-movement bound, so accelerators
    # barely move the needle either way (one GPU can even lose: all
    # GEMMs funnel through a single PCIe-staged device)
    assert 0.5 < times[2][15] / times[0][15] < 1.5
    # and the second GPU's marginal gain is far below the first's
    first_gpu_gain = times[0][1] / times[1][1]
    second_gpu_gain = times[1][15] / times[2][15]
    assert second_gpu_gain < 0.5 * first_gpu_gain
