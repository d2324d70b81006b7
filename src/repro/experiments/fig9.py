"""Figure 9: original code vs. PaRSEC variants across cores/node.

"Comparison of algorithm variations and original code": execution time
of ``icsd_t2_7()`` on 32 nodes for beta-carotene/6-31G, for the
original NWChem execution and the five PaRSEC variants, sweeping
cores/node.

:func:`run_fig9` produces the full series, :func:`fig9_report` renders
it and :func:`fig9_shape_checks` evaluates the claims the paper draws
from the figure, with tolerance bands (our machine is a calibrated
simulation, so shapes — who wins, where the original saturates, how the
variants order — are the reproduction target, not absolute seconds).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from repro.analysis.report import format_fig9_table, format_table
from repro.core import api
from repro.experiments.calibration import CORE_COUNTS, PAPER_NODES, cell_config
from repro.experiments.claims import ShapeCheck, render_claims
from repro.experiments.sweep import SweepCell, SweepExecutor, SweepStats
from repro.util.errors import ConfigurationError
from repro.workloads import canonical_token

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "Fig9Result",
    "run_point",
    "fig9_cells",
    "run_fig9",
    "fig9_report",
    "fig9_shape_checks",
]

CODES = ("original", "v1", "v2", "v3", "v4", "v5")

BENCH_SCHEMA_VERSION = 1


@dataclass
class Fig9Result:
    """The full Figure 9 series, serializable as BENCH JSON."""

    #: code -> cores/node -> virtual seconds
    times: dict[str, dict[int, float]]
    core_counts: tuple[int, ...]
    scale: str
    n_nodes: int
    #: registry name of the workload the sweep ran (the shape checks
    #: are paper claims about t2_7; other workloads report them as
    #: informational only). Serialized only when it is not t2_7, so
    #: the committed t2_7 baselines carry no such key.
    workload: str = "t2_7"
    #: wall-clock accounting of the sweep that produced this result
    #: (host-side diagnostics only — never part of the data).
    sweep_stats: Optional[SweepStats] = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        payload = {
            "schema": BENCH_SCHEMA_VERSION,
            "scale": self.scale,
            "n_nodes": self.n_nodes,
            "core_counts": list(self.core_counts),
            "times": {
                code: {str(cores): t for cores, t in sorted(series.items())}
                for code, series in sorted(self.times.items())
            },
        }
        if self.workload != "t2_7":
            payload["workload"] = self.workload
        return payload

    @classmethod
    def from_dict(cls, d: dict) -> "Fig9Result":
        schema = d.get("schema")
        if schema != BENCH_SCHEMA_VERSION:
            raise ConfigurationError(
                f"BENCH schema mismatch: file has schema={schema!r}, this "
                f"build reads schema={BENCH_SCHEMA_VERSION}. Regenerate the "
                "baseline with `python -m repro perf --update-baseline` "
                "(or read it with a matching build)."
            )
        return cls(
            times={
                code: {int(cores): float(t) for cores, t in series.items()}
                for code, series in d["times"].items()
            },
            core_counts=tuple(d["core_counts"]),
            scale=d["scale"],
            n_nodes=d["n_nodes"],
            workload=d.get("workload", "t2_7"),
        )

    def write(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def read(cls, path) -> "Fig9Result":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def table(self) -> str:
        label = "icsd_t2_7" if self.workload == "t2_7" else self.workload
        return format_fig9_table(
            self.times,
            list(self.core_counts),
            title=(
                f"Figure 9 reproduction: {label} on {self.n_nodes} nodes, "
                f"scale={self.scale} (virtual seconds)"
            ),
        )

    def chart(self, width: int = 72, height: int = 20) -> str:
        """The Figure 9 line plot, rendered in ASCII."""
        from repro.analysis.ascii_chart import render_series_chart

        return render_series_chart(
            self.times,
            list(self.core_counts),
            width=width,
            height=height,
            title="Execution time vs cores/node (cf. the paper's Figure 9)",
        )

    def lacks(self, cores: Sequence[int] = (), codes: Sequence[str] = ()) -> str:
        """Why the sweep cannot probe these points ("" when it can)."""
        reasons = []
        if missing := sorted(c for c in cores if c not in self.core_counts):
            reasons.append(f"grid lacks {'/'.join(map(str, missing))} cores/node")
        if missing_codes := sorted(c for c in codes if c not in self.times):
            reasons.append(f"sweep lacks {'/'.join(missing_codes)}")
        return "; ".join(reasons)

    def best_original(self) -> tuple[int, float]:
        series = self.times["original"]
        cores = min(series, key=series.get)
        return cores, series[cores]

    def summary_table(self) -> str:
        """The headline speedups quoted in the paper's text.

        Probe points the grid does not contain (the paper quotes 3 and
        7 cores/node; the tiny/small presets sweep other counts) render
        as explicit ``n/a`` rows instead of raising ``KeyError``.
        """
        orig = self.times["original"]
        best_cores, best_time = self.best_original()
        max_cores = max(self.core_counts)
        parsec_at_max = {
            c: s[max_cores] for c, s in self.times.items() if c != "original"
        }
        fastest = min(parsec_at_max, key=parsec_at_max.get)
        slowest = max(parsec_at_max, key=parsec_at_max.get)

        def self_speedup(cores: int) -> str:
            lacks = self.lacks((1, cores))
            return f"n/a ({lacks})" if lacks else f"{orig[1] / orig[cores]:.2f}x"

        rows = [
            ["original self-speedup @3 cores", self_speedup(3), "2.35x"],
            ["original self-speedup @7 cores", self_speedup(7), "2.69x"],
            [
                "best original",
                f"{best_time:.2f}s @{best_cores} cores/node",
                "@7 cores/node",
            ],
            [
                f"{fastest}@{max_cores} vs best original",
                f"{best_time / parsec_at_max[fastest]:.2f}x",
                "2.1x (v5)",
            ],
            [
                f"variant spread @{max_cores} ({slowest}/{fastest})",
                f"{parsec_at_max[slowest] / parsec_at_max[fastest]:.2f}x",
                "1.73x",
            ],
        ]
        return format_table(
            ["quantity", "measured", "paper"], rows, title="Headline comparison"
        )


def run_point(
    code: str,
    cores_per_node: int,
    scale: str = "paper",
    n_nodes: int = PAPER_NODES,
    workload: str = "t2_7",
    **config_fields,
) -> float:
    """One cell of Figure 9: a fresh cluster, workload, and execution.

    ``config_fields`` are :func:`~repro.experiments.calibration.
    cell_config`'s: ``machine``, ``seed``, ``stealing`` (on/off: the
    default :class:`~repro.parsec.stealing.StealPolicy` for the PaRSEC
    codes; the original/dtd paths ignore it), the skew knobs (they shape
    the workload itself, so they apply to every code) and
    ``inspection_cache`` (the caller's own instead of the process memo;
    either skips the chain walk of a workload/node-count already
    inspected — virtual timings are unaffected).
    """
    config = cell_config(cores_per_node, n_nodes, **config_fields)
    token = canonical_token(workload, scale=scale)
    return api.run(token, runtime=code, config=config).execution_time


def fig9_cells(
    codes: Sequence[str], core_counts: Sequence[int], **point_fields
) -> list[SweepCell]:
    """The ``(code, cores)`` grid as sweep cells of :func:`run_point`.

    ``point_fields`` are :func:`run_point`'s other arguments, the same
    for every cell. A cell is a few hundred bytes of parameters: the
    process that runs it memoises the inspection (one chain walk per
    structure × variant height × node count it meets), so nothing is
    precomputed or shipped here.
    """
    return [
        SweepCell(
            key=(code, cores),
            fn=run_point,
            kwargs=dict(code=code, cores_per_node=cores, **point_fields),
        )
        for code in codes
        for cores in core_counts
    ]


def run_fig9(
    scale: str = "paper",
    core_counts: Sequence[int] = CORE_COUNTS,
    codes: Iterable[str] = CODES,
    n_nodes: int = PAPER_NODES,
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    workload: str = "t2_7",
    **cell_kwargs,
) -> Fig9Result:
    """The full sweep: every code at every core count.

    Every ``(code, cores)`` cell builds its own cluster and workload,
    so the grid is dispatched through :class:`SweepExecutor`:
    ``jobs > 1`` fans the cells out over worker processes and the
    deterministic merge guarantees the result — ``times`` dict, tables,
    BENCH JSON downstream — is byte-identical to the serial sweep.
    ``cell_kwargs`` are :func:`run_point`'s other arguments (``seed``,
    ``skew_factor``, ``skew_period``, ``machine``, ``stealing``).
    """
    codes = tuple(codes)
    core_counts = tuple(core_counts)
    cells = fig9_cells(
        codes,
        core_counts,
        scale=scale,
        n_nodes=n_nodes,
        workload=workload,
        **cell_kwargs,
    )
    executor = SweepExecutor(
        jobs=jobs, progress=progress, label=f"fig9[{workload}:{scale}]"
    )
    results, stats = executor.run(cells)
    times: dict[str, dict[int, float]] = {
        code: {cores: results[(code, cores)] for cores in core_counts}
        for code in codes
    }
    return Fig9Result(
        times=times,
        core_counts=core_counts,
        scale=scale,
        n_nodes=n_nodes,
        workload=workload,
        sweep_stats=stats,
    )


def fig9_report(result: Fig9Result) -> str:
    """What ``repro fig9`` prints: table, chart, headline speedups, checks."""
    return "\n\n".join(
        [
            result.table(),
            result.chart(),
            result.summary_table(),
            render_claims(fig9_shape_checks(result)),
        ]
    )


def fig9_shape_checks(result: Fig9Result) -> list[ShapeCheck]:
    """Evaluate the paper's Figure 9 claims on a sweep.

    The paper's claims probe specific grid points (1, 3, 7, 11, and the
    top core count). On a grid that lacks a probe point — the tiny
    preset sweeps (1, 2, 4) — the affected claim is returned as an
    explicit *skipped* check rather than raising ``KeyError``; the same
    applies to claims about codes the sweep did not run. Every call
    returns the full list of ten checks.
    """
    checks: list[ShapeCheck] = []
    times = result.times
    grid = set(result.core_counts)
    top = max(result.core_counts)
    orig = times.get("original", {})
    at_top = {c: series[top] for c, series in times.items() if c != "original"}
    ranked = sorted(at_top, key=at_top.get, reverse=True)  # slow to fast
    from_3 = sorted(c for c in grid if c >= 3)
    lacks = result.lacks

    def claim(name: str, skip: str):
        """Record the decorated claim — a ``() -> (passed, detail)`` —
        or, when ``skip`` names what the sweep lacks, a skipped check."""

        def record(fn: Callable[[], tuple[bool, str]]):
            if skip:
                checks.append(ShapeCheck(name, True, f"skipped: {skip}", skipped=True))
            else:
                checks.append(ShapeCheck(name, *fn()))
            return fn

        return record

    # "scales fairly well up to three cores/node (2.35x)"
    @claim("original speedup at 3 cores/node ~2.35x", lacks((1, 3), ["original"]))
    def speedup_at_3():
        speedup = orig[1] / orig[3]
        return 2.0 <= speedup <= 2.9, f"measured {speedup:.2f}x (paper 2.35x)"

    # "little additional improvement until best at 7; deteriorates after"
    @claim("original plateaus by 7 cores/node", lacks([7], ["original"]))
    def plateau():
        low = min(orig[c] for c in result.core_counts if c >= 7)
        return orig[7] <= 1.06 * low, f"T(7)={orig[7]:.2f}s vs plateau min {low:.2f}s"

    @claim(
        "original deteriorates at the end (not significantly)",
        lacks([7], ["original"]),
    )
    def deteriorates():
        return (
            orig[7] * 0.98 <= orig[top] <= orig[7] * 1.25,
            f"T({top})={orig[top]:.2f}s vs T(7)={orig[7]:.2f}s",
        )

    # "PaRSEC outperforms the original as soon as three cores are used"
    @claim(
        "every PaRSEC variant beats original from 3 cores/node",
        lacks(codes=["original"])
        if from_3
        else "grid lacks any point at 3+ cores/node",
    )
    def wins_from_3():
        wins = all(times[c][k] < orig[k] for c in at_top for k in from_3)
        at = ", ".join(map(str, from_3))
        return wins, (f"all variants faster at {at}" if wins else "violated")

    # "all variants except v1 improve all the way to 15 cores/node"
    @claim(
        "v2-v5 keep improving to 15; v1 largely stops",
        "grid lacks a point beyond 11 cores/node"
        if 11 in grid and top <= 11
        else lacks([11], ["v1"]),
    )
    def improve_to_end():
        others = all(times[c][top] < times[c][11] * 0.95 for c in at_top if c != "v1")
        gain = times["v1"][11] / times["v1"][top] - 1.0
        detail = f"v1 gain 11->{top} is {100 * gain:.1f}%; others > 5%"
        return others and gain < 0.15, detail

    # v1 slowest variant, v2 next
    @claim("v1 slowest variant at 15; v2 second slowest", lacks(codes=["v1", "v2"]))
    def ranking():
        return ranked[:2] == ["v1", "v2"], f"slow-to-fast at {top}: {ranked}"

    # "best variant (v5) achieves 2.1x over fastest original run"
    @claim(
        "v5@15 vs best original ~2.1x (band 1.8-4.0)", lacks(codes=["original", "v5"])
    )
    def v5_vs_original():
        ratio = result.best_original()[1] / at_top["v5"]
        return (
            1.8 <= ratio <= 4.0,
            f"measured {ratio:.2f}x (paper 2.1x; our simulated node gives "
            "PaRSEC less scaling friction than Cascade did)",
        )

    # "fastest variant is 1.73x faster than the slowest" at 15
    @claim(
        "variant spread at 15 cores ~1.73x (band 1.3-2.2)",
        lacks(codes=["v1", "v2", "v3", "v4", "v5"]),
    )
    def variant_spread():
        spread = at_top[ranked[0]] / at_top[ranked[-1]]
        return 1.3 <= spread <= 2.2, f"measured {spread:.2f}x (paper 1.73x)"

    # v5 (one SORT, one WRITE) is the fastest variant, within noise
    @claim("v5 fastest variant at 15 (within 2% tie tolerance)", lacks(codes=["v5"]))
    def v5_fastest():
        fastest = min(at_top.values())
        detail = f"v5={at_top['v5']:.2f}s vs fastest={fastest:.2f}s"
        return at_top["v5"] <= fastest * 1.02, detail

    # v2 slower than v4 (identical but for priorities)
    @claim("priorities matter: v2 slower than v4 at 15", lacks(codes=["v2", "v4"]))
    def priorities():
        ratio = at_top["v2"] / at_top["v4"]
        return ratio > 1.10, f"v2/v4 = {ratio:.2f}x"

    return checks
