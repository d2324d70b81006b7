"""Performance baselines: the Figure 9 sweep as an exact gate.

:func:`run_perf` executes the fig9-style sweep (every code at every
core count, SYNTH data, metrics off) at a named scale; the
:class:`~repro.experiments.fig9.Fig9Result` it returns is the baseline.
Baselines are written as ``BENCH_fig9_<scale>.json`` and the committed
copies live in ``benchmarks/baselines/``.

The times are *virtual* seconds of the deterministic simulation: a
diff always reflects a behavioural change, never host noise, so the
gate has no tolerance. :func:`baseline_mismatches` names every cell
that differs, in either direction, or that only one grid has.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional

from repro.experiments.calibration import CORE_COUNTS, PAPER_NODES
from repro.experiments.fig9 import BENCH_SCHEMA_VERSION, Fig9Result, run_fig9
from repro.util.errors import ConfigurationError

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "PERF_PRESETS",
    "baseline_mismatches",
    "baseline_path",
    "run_perf",
]

#: per-scale sweep shapes; tiny/small shrink the grid so the gate is
#: cheap enough for CI, paper/full run the real Figure 9 axis
PERF_PRESETS: dict[str, dict] = {
    "tiny": {"n_nodes": 4, "core_counts": (1, 2, 4)},
    "small": {"n_nodes": 8, "core_counts": (1, 3, 7)},
    "paper": {"n_nodes": PAPER_NODES, "core_counts": CORE_COUNTS},
    "full": {"n_nodes": PAPER_NODES, "core_counts": CORE_COUNTS},
}


def baseline_path(scale: str, workload: str = "t2_7") -> Path:
    """Committed baseline file for a (workload, scale) pair, in
    ``benchmarks/baselines/`` at the repository root.

    The t2_7 default keeps the historical ``BENCH_fig9_<scale>.json``
    name; other workloads get ``BENCH_fig9_<workload>_<scale>.json``
    (token separators sanitized for the filesystem).
    """
    root = Path(__file__).resolve().parents[3] / "benchmarks" / "baselines"
    if workload == "t2_7":
        return root / f"BENCH_fig9_{scale}.json"
    tag = workload.replace(":", "_").replace("/", "_")
    return root / f"BENCH_fig9_{tag}_{scale}.json"


def run_perf(
    scale: str = "tiny",
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    stealing: bool = False,
    workload: str = "t2_7",
) -> Fig9Result:
    """Run the fig9-style sweep at a scale's preset grid.

    ``scale`` must name a preset — an unknown scale raises
    :class:`~repro.util.errors.ConfigurationError` rather than silently
    falling back to the tiny grid (a typo would otherwise write a bogus
    baseline). ``jobs`` fans the independent cells out over worker
    processes; the resulting baseline is byte-identical to ``jobs=1``.
    ``stealing`` runs the PaRSEC codes with the default steal policy —
    such sweeps are *not* comparable to the committed static baselines
    (the CLI neither gates on one nor writes one as a baseline).
    """
    preset = PERF_PRESETS.get(scale)
    if preset is None:
        raise ConfigurationError(
            f"unknown perf scale {scale!r}; choose from {sorted(PERF_PRESETS)}"
        )
    return run_fig9(
        scale=scale,
        jobs=jobs,
        progress=progress,
        stealing=stealing,
        workload=workload,
        **preset,
    )


def baseline_mismatches(old: Fig9Result, new: Fig9Result) -> list[str]:
    """Everything that keeps ``new`` from equalling the ``old`` baseline,
    one line each; an empty list means the two grids are equal.

    A cell whose time moved is named with both times, faster or slower;
    a cell or a whole code series only one side has is named as missing
    from the fresh sweep or as not in the baseline.
    """
    lines = [
        f"{name}: baseline {getattr(old, name)!r}, fresh sweep {getattr(new, name)!r}"
        for name in ("workload", "scale", "n_nodes", "core_counts")
        if getattr(old, name) != getattr(new, name)
    ]
    for code in sorted(old.times.keys() | new.times.keys()):
        if code not in new.times:
            lines.append(f"{code}: series missing from the fresh sweep")
            continue
        if code not in old.times:
            lines.append(f"{code}: series not in the baseline")
            continue
        old_series, new_series = old.times[code], new.times[code]
        for cores in sorted(old_series.keys() | new_series.keys()):
            cell = f"{code}@{cores}c"
            if cores not in new_series:
                lines.append(f"{cell}: missing from the fresh sweep")
            elif cores not in old_series:
                lines.append(f"{cell}: not in the baseline")
            elif new_series[cores] != old_series[cores]:
                before, after = old_series[cores], new_series[cores]
                change = f" ({100 * (after / before - 1):+.1f}%)" if before else ""
                lines.append(f"{cell}: {before!r}s -> {after!r}s{change}")
    return lines
