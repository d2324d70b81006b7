"""PTG vs Dynamic Task Discovery — the Section VI comparison, measured.

The paper argues the PTG's symbolic representation is "hardly
equivalent" to DTD's skeleton programs that build the whole DAG in
memory. Here both models execute the identical v5 task organization of
icsd_t2_7 on the identical simulated machine, so the difference is
purely representational:

- the PTG instantiates tasks from a handful of symbolic classes; the
  DTD skeleton *inserts* every task serially and *materializes* every
  dependence edge;
- execution quality should be comparable (same placement, same
  priorities, same costs).
"""

import pytest

from benchmarks.conftest import write_report
from repro.analysis.report import format_table
from repro.core.dtd_port import run_over_dtd
from repro.core import api
from repro.core.variants import V5
from repro.experiments.calibration import make_cluster, make_workload
from repro.experiments.claims import informational


@pytest.mark.benchmark(group="dtd")
def test_dtd_vs_ptg_comparison(benchmark, results_dir, scale):
    def run_both():
        cluster = make_cluster(7)
        workload = make_workload(cluster, scale=scale)
        ptg_run = api.run(workload, variant=V5)

        cluster = make_cluster(7)
        workload = make_workload(cluster, scale=scale)
        dtd_run = run_over_dtd(cluster, workload.subroutine)
        return ptg_run, dtd_run

    ptg_run, dtd_run = benchmark.pedantic(run_both, rounds=1, iterations=1)
    rows = [
        [
            "PTG (v5)",
            f"{ptg_run.execution_time:.3f}",
            str(ptg_run.n_tasks),
            str(len(ptg_run.tasks_per_class)),  # symbolic classes
            "0 (symbolic dataflow)",
            "-",
        ],
        [
            "DTD (v5 organization)",
            f"{dtd_run.execution_time:.3f}",
            str(dtd_run.n_tasks),
            str(dtd_run.n_tasks),  # every task is an explicit record
            str(dtd_run.n_edges),
            f"{dtd_run.insertion_time * 1e3:.2f} ms serial insertion",
        ],
    ]
    write_report(
        results_dir,
        f"dtd_vs_ptg_{scale}.txt",
        format_table(
            [
                "model",
                "time (s)",
                "tasks",
                "task records",
                "edges in memory",
                "build cost",
            ],
            rows,
            title="PTG vs DTD: icsd_t2_7 (v5 organization), 32 nodes x 7 cores",
        ),
    )
    if informational(scale):
        return  # smoke run at reduced scale: report only
    # both models execute the same graph competently...
    assert dtd_run.execution_time < 1.5 * ptg_run.execution_time
    assert dtd_run.n_tasks == ptg_run.n_tasks
    # ...but DTD pays a materialized DAG (roughly one in-edge per
    # non-source task, ~edge-per-task scale) and a serial insertion
    # phase — the paper's Section VI argument
    assert dtd_run.n_edges > 0.9 * dtd_run.n_tasks
    assert dtd_run.insertion_time > 0
