"""Performance baselines: the Figure 9 sweep as a regression gate.

:func:`run_perf` executes the fig9-style sweep (every code at every
core count, SYNTH data, metrics off) at a named scale; the
:class:`~repro.experiments.fig9.Fig9Result` it returns is the baseline.
Baselines are written as ``BENCH_fig9_<scale>.json`` and the committed
copies live in ``benchmarks/baselines/``; :func:`diff_baselines`
compares a fresh sweep against a committed file and flags any cell
that got slower by more than a configurable threshold.

The times are *virtual* seconds of the deterministic simulation, so on
an unchanged tree a re-run reproduces the committed baseline exactly;
a diff always reflects a behavioural change in the simulator or the
runtimes, never host noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.experiments.calibration import CORE_COUNTS, PAPER_NODES
from repro.experiments.fig9 import BENCH_SCHEMA_VERSION, Fig9Result, run_fig9
from repro.util.errors import ConfigurationError

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_THRESHOLD",
    "PERF_PRESETS",
    "BaselineDiff",
    "MissingCell",
    "Regression",
    "baseline_path",
    "diff_baselines",
    "run_perf",
]

#: a cell counts as a regression when new > old * (1 + threshold)
DEFAULT_THRESHOLD = 0.20

#: per-scale sweep shapes; tiny/small shrink the grid so the gate is
#: cheap enough for CI, paper/full run the real Figure 9 axis
PERF_PRESETS: dict[str, dict] = {
    "tiny": {"n_nodes": 4, "core_counts": (1, 2, 4)},
    "small": {"n_nodes": 8, "core_counts": (1, 3, 7)},
    "paper": {"n_nodes": PAPER_NODES, "core_counts": CORE_COUNTS},
    "full": {"n_nodes": PAPER_NODES, "core_counts": CORE_COUNTS},
}


@dataclass(frozen=True)
class Regression:
    """One sweep cell that got slower past the threshold."""

    code: str
    cores: int
    old: float
    new: float

    @property
    def ratio(self) -> float:
        return self.new / self.old if self.old else float("inf")

    def describe(self) -> str:
        return (
            f"{self.code}@{self.cores}c: {self.old:.6f}s -> {self.new:.6f}s "
            f"({100 * (self.ratio - 1):+.1f}%)"
        )


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


@dataclass(frozen=True)
class MissingCell:
    """A cell present in the old baseline but absent from the new sweep."""

    code: str
    #: None when the whole code series vanished (not just one count)
    cores: Optional[int]

    def describe(self) -> str:
        if self.cores is None:
            return f"{self.code}: entire series missing from the new sweep"
        return f"{self.code}@{self.cores}c: missing from the new sweep"


@dataclass
class BaselineDiff:
    """Outcome of comparing a fresh sweep against a committed baseline.

    A shrunken grid is reported, never silently skipped: every old cell
    the new sweep no longer covers appears in ``missing`` — otherwise
    dropping cells would make the regression gate pass vacuously.
    """

    regressions: list[Regression] = field(default_factory=list)
    missing: list[MissingCell] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def __iter__(self):
        return iter(self.regressions)

    def __len__(self) -> int:
        return len(self.regressions)


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
    (the CLI gates on that).
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


def diff_baselines(
    old: Fig9Result, new: Fig9Result, threshold: float = DEFAULT_THRESHOLD
) -> BaselineDiff:
    """Compare ``new`` against ``old`` cell by cell.

    Returns a :class:`BaselineDiff`: cells of ``new`` slower than
    ``old`` by more than ``threshold`` land in ``regressions``; cells
    of ``old`` that ``new`` no longer contains land in ``missing``.
    Cells only ``new`` has (a grown grid) are ignored. Baselines from
    different workloads never compare — that would gate one workload's
    regressions against another's timings.
    """
    if old.workload != new.workload:
        raise ConfigurationError(
            f"baseline workload mismatch: old={old.workload!r} vs "
            f"new={new.workload!r}"
        )
    diff = BaselineDiff()
    for code in sorted(old.times):
        new_series = new.times.get(code)
        if new_series is None:
            diff.missing.append(MissingCell(code, None))
            continue
        for cores, old_time in sorted(old.times[code].items()):
            new_time = new_series.get(cores)
            if new_time is None:
                diff.missing.append(MissingCell(code, cores))
                continue
            if new_time > old_time * (1.0 + threshold):
                diff.regressions.append(Regression(code, cores, old_time, new_time))
    return diff
