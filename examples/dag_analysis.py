"""Structural analysis of the variants' task graphs.

The paper argues variant behaviour from structure: serial GEMM chains
(v1) trade parallelism for locality, segmented chains (v2-v5) invert
the trade. Walking each variant's task template in dependency order we
can *measure* that structure without running anything: total work,
critical path (span), and the work/span bound on useful parallelism.

Also exports a Chrome trace of a v5 run — open it at
https://ui.perfetto.dev or chrome://tracing to browse the simulated
execution the way the paper's authors browsed theirs.

Run:  python examples/dag_analysis.py
"""

import os
import tempfile

from repro.analysis.chrome_trace import write_chrome_trace
from repro.analysis.dag import profile_task_graph
from repro.analysis.report import format_table
import repro
from repro.core.api import build
from repro.core.inspector import inspect_subroutine
from repro.core.ptg_build import build_ccsd_ptg
from repro.core.variants import PAPER_VARIANTS
from repro.sim.cluster import DataMode


def make_setup():
    config = repro.RunConfig(
        n_nodes=8, cores_per_node=4, data_mode=DataMode.SYNTH, trace=True
    )
    workload = build("t2_7:small", config)
    return workload.cluster, workload


def main() -> None:
    rows = []
    for name, variant in sorted(PAPER_VARIANTS.items()):
        cluster, workload = make_setup()
        md = inspect_subroutine(workload.subroutine, cluster, variant)
        graph = build_ccsd_ptg(variant, md).instantiate(md, cluster.n_nodes)
        profile = profile_task_graph(graph, cluster.machine)
        rows.append(
            [
                name,
                str(profile.n_tasks),
                str(profile.n_edges),
                f"{profile.total_work * 1e3:.1f}",
                f"{profile.critical_path * 1e3:.2f}",
                f"{profile.average_parallelism:.0f}",
            ]
        )
    print(
        format_table(
            ["variant", "tasks", "edges", "work (ms)", "span (ms)", "work/span"],
            rows,
            title="Task-graph structure per variant (small system, 8 nodes)",
        )
    )
    print(
        "\nReading: v1's serial chains give it a much longer span (and a\n"
        "much lower work/span parallelism bound) than the parallel variants —\n"
        "the structural reason the paper finds 'parallelism between GEMMs is\n"
        "more significant than locality', and the gap widens with chain length."
    )

    # export a browsable trace of the winning variant
    cluster, workload = make_setup()
    repro.run(workload, variant=PAPER_VARIANTS["v5"])
    path = os.path.join(tempfile.gettempdir(), "repro_v5_trace.json")
    write_chrome_trace(cluster.trace, path)
    print(f"\nChrome trace of the v5 run written to {path}")
    print("open it at chrome://tracing or https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
