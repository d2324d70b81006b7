"""Reproduce the paper's trace figures as ASCII Gantt charts.

Generates the Figure 10 (v4, priorities), Figure 11 (v2, no
priorities), and Figure 12 (original code) traces on a simulated
cluster and renders them side by side, plus the metrics the paper reads
off them — the report ``python -m repro traces`` prints. The claim lines
hold the paper-scale bands; below paper scale some of them fail, which
is expected (the CLI marks them informational there).

Run:  python examples/trace_gallery.py [scale]
"""

import sys

from repro.experiments.traces import (
    fig10_11_report,
    fig12_13_report,
    run_fig10_11,
    run_fig12_13,
)


def main() -> None:
    scale = sys.argv[1] if len(sys.argv) > 1 else "small"
    print(fig10_11_report(*run_fig10_11(scale=scale)))
    print()
    print(fig12_13_report(run_fig12_13(scale=scale)))
    print()
    print(
        "Reading the charts: in the v2 trace the left edge is blank (grey in\n"
        "the paper) — the un-prioritized READ tasks flooded the network and\n"
        "the workers idle until matched operands arrive. The original-code\n"
        "trace shows c/w (GET/ADD_HASH_BLOCK) boxes between every pair of\n"
        "G (GEMM) boxes on the same row: communication interleaved with\n"
        "computation but never overlapped."
    )


if __name__ == "__main__":
    main()
