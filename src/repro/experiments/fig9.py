"""Figure 9: original code vs. PaRSEC variants across cores/node.

"Comparison of algorithm variations and original code": execution time
of ``icsd_t2_7()`` on 32 nodes for beta-carotene/6-31G, for the
original NWChem execution and the five PaRSEC variants, sweeping
cores/node.

:func:`run_fig9` produces the full series; :func:`fig9_shape_checks`
evaluates the claims the paper draws from the figure, with tolerance
bands (our machine is a calibrated simulation, so shapes — who wins,
where the original saturates, how the variants order — are the
reproduction target, not absolute seconds).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from repro.analysis.report import format_fig9_table, format_table
from repro.core import api
from repro.experiments.calibration import CORE_COUNTS, PAPER_NODES, cell_config
from repro.experiments.sweep import SweepCell, SweepExecutor, SweepStats
from repro.util.errors import ConfigurationError
from repro.workloads import canonical_token

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "Fig9Result",
    "ShapeCheck",
    "run_point",
    "fig9_cells",
    "run_fig9",
    "fig9_shape_checks",
]

CODES = ("original", "v1", "v2", "v3", "v4", "v5")

BENCH_SCHEMA_VERSION = 1


@dataclass
class ShapeCheck:
    """One claim extracted from the paper, evaluated on our data.

    ``skipped`` marks a claim whose probe points the sweep grid does
    not contain (e.g. the tiny preset has no 7-cores/node cell); a
    skipped check counts as passed so small grids don't spuriously
    fail, but the CLI reports it as SKIP rather than PASS.
    """

    name: str
    passed: bool
    detail: str
    skipped: bool = False


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
    sweep_stats: Optional[SweepStats] = field(
        default=None, repr=False, compare=False
    )

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
        grid = set(self.core_counts)
        best_cores, best_time = self.best_original()
        max_cores = max(self.core_counts)
        parsec_at_max = {
            code: series[max_cores]
            for code, series in self.times.items()
            if code != "original"
        }
        fastest = min(parsec_at_max, key=parsec_at_max.get)
        slowest = max(parsec_at_max, key=parsec_at_max.get)

        def self_speedup(cores: int) -> str:
            missing = [c for c in (1, cores) if c not in grid]
            if missing:
                lacks = "/".join(str(c) for c in missing)
                return f"n/a (grid lacks {lacks} cores/node)"
            return f"{orig[1] / orig[cores]:.2f}x"

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
    max_cores = max(result.core_counts)
    parsec_codes = [c for c in times if c != "original"]
    parsec_at_max = {c: times[c][max_cores] for c in parsec_codes}

    def evaluate(
        name: str,
        fn: Callable[[], tuple[bool, str]],
        need_cores: Sequence[int] = (),
        need_codes: Sequence[str] = (),
    ) -> None:
        """Run one claim, or record it as skipped when the grid/codes
        lack its probe points."""
        reasons = []
        missing_cores = sorted(c for c in need_cores if c not in grid)
        if missing_cores:
            lacks = "/".join(str(c) for c in missing_cores)
            reasons.append(f"grid lacks {lacks} cores/node")
        missing_codes = sorted(c for c in need_codes if c not in times)
        if missing_codes:
            reasons.append(f"sweep lacks {'/'.join(missing_codes)}")
        if reasons:
            checks.append(
                ShapeCheck(name, True, "skipped: " + "; ".join(reasons), skipped=True)
            )
            return
        passed, detail = fn()
        checks.append(ShapeCheck(name, passed, detail))

    # 1. "scales fairly well up to three cores/node (2.35x)"
    def claim_speedup3() -> tuple[bool, str]:
        speedup3 = times["original"][1] / times["original"][3]
        return 2.0 <= speedup3 <= 2.9, f"measured {speedup3:.2f}x (paper 2.35x)"

    evaluate(
        "original speedup at 3 cores/node ~2.35x",
        claim_speedup3,
        need_cores=(1, 3),
        need_codes=("original",),
    )

    # 2. "little additional improvement until best at 7; deteriorates after"
    def claim_plateau() -> tuple[bool, str]:
        orig = times["original"]
        plateau = min(orig[c] for c in result.core_counts if c >= 7)
        return (
            orig[7] <= 1.06 * plateau,
            f"T(7)={orig[7]:.2f}s vs plateau min {plateau:.2f}s",
        )

    evaluate(
        "original plateaus by 7 cores/node",
        claim_plateau,
        need_cores=(7,),
        need_codes=("original",),
    )

    def claim_deteriorates() -> tuple[bool, str]:
        orig = times["original"]
        return (
            orig[max_cores] >= orig[7] * 0.98 and orig[max_cores] <= orig[7] * 1.25,
            f"T({max_cores})={orig[max_cores]:.2f}s vs T(7)={orig[7]:.2f}s",
        )

    evaluate(
        "original deteriorates at the end (not significantly)",
        claim_deteriorates,
        need_cores=(7,),
        need_codes=("original",),
    )

    # 3. "PaRSEC outperforms the original as soon as three cores are used"
    probe_from_3 = sorted(c for c in grid if c >= 3)

    def claim_wins_from_3() -> tuple[bool, str]:
        wins = all(
            times[c][cores] < times["original"][cores]
            for c in parsec_codes
            for cores in probe_from_3
        )
        at = ", ".join(str(c) for c in probe_from_3)
        return wins, (f"all variants faster at {at}" if wins else "violated")

    if not probe_from_3:
        checks.append(
            ShapeCheck(
                "every PaRSEC variant beats original from 3 cores/node",
                True,
                "skipped: grid lacks any point at 3+ cores/node",
                skipped=True,
            )
        )
    else:
        evaluate(
            "every PaRSEC variant beats original from 3 cores/node",
            claim_wins_from_3,
            need_codes=("original",),
        )

    # 4. "all variants except v1 improve all the way to 15 cores/node"
    def claim_improve_to_end() -> tuple[bool, str]:
        others_improve = all(
            times[c][max_cores] < times[c][11] * 0.95
            for c in parsec_codes
            if c != "v1"
        )
        v1_gain = times["v1"][11] / times["v1"][max_cores] - 1.0
        return (
            others_improve and v1_gain < 0.15,
            f"v1 gain 11->{max_cores} is {100 * v1_gain:.1f}%; others > 5%",
        )

    if 11 in grid and max_cores <= 11:
        checks.append(
            ShapeCheck(
                "v2-v5 keep improving to 15; v1 largely stops",
                True,
                "skipped: grid lacks a point beyond 11 cores/node",
                skipped=True,
            )
        )
    else:
        evaluate(
            "v2-v5 keep improving to 15; v1 largely stops",
            claim_improve_to_end,
            need_cores=(11,),
            need_codes=("v1",),
        )

    # 5. v1 slowest variant, v2 next
    ranked = sorted(parsec_at_max, key=parsec_at_max.get, reverse=True)

    def claim_ranking() -> tuple[bool, str]:
        return (
            ranked[0] == "v1" and ranked[1] == "v2",
            f"slow-to-fast at {max_cores}: {ranked}",
        )

    evaluate(
        "v1 slowest variant at 15; v2 second slowest",
        claim_ranking,
        need_codes=("v1", "v2"),
    )

    # 6. "best variant (v5) achieves 2.1x over fastest original run"
    def claim_v5_vs_original() -> tuple[bool, str]:
        _, best_orig = result.best_original()
        ratio = best_orig / parsec_at_max["v5"]
        return (
            1.8 <= ratio <= 4.0,
            f"measured {ratio:.2f}x (paper 2.1x; our simulated node gives "
            "PaRSEC less scaling friction than Cascade did)",
        )

    evaluate(
        "v5@15 vs best original ~2.1x (band 1.8-4.0)",
        claim_v5_vs_original,
        need_codes=("original", "v5"),
    )

    # 7. "fastest variant is 1.73x faster than the slowest" at 15
    def claim_spread() -> tuple[bool, str]:
        spread = parsec_at_max[ranked[0]] / parsec_at_max[ranked[-1]]
        return 1.3 <= spread <= 2.2, f"measured {spread:.2f}x (paper 1.73x)"

    evaluate(
        "variant spread at 15 cores ~1.73x (band 1.3-2.2)",
        claim_spread,
        need_codes=("v1", "v2", "v3", "v4", "v5"),
    )

    # 8. v5 (one SORT, one WRITE) is the fastest variant, within noise
    def claim_v5_fastest() -> tuple[bool, str]:
        fastest_time = min(parsec_at_max.values())
        return (
            parsec_at_max["v5"] <= fastest_time * 1.02,
            f"v5={parsec_at_max['v5']:.2f}s vs fastest={fastest_time:.2f}s",
        )

    evaluate(
        "v5 fastest variant at 15 (within 2% tie tolerance)",
        claim_v5_fastest,
        need_codes=("v5",),
    )

    # 9. v2 slower than v4 (identical but for priorities)
    def claim_priorities() -> tuple[bool, str]:
        v2_vs_v4 = parsec_at_max["v2"] / parsec_at_max["v4"]
        return v2_vs_v4 > 1.10, f"v2/v4 = {v2_vs_v4:.2f}x"

    evaluate(
        "priorities matter: v2 slower than v4 at 15",
        claim_priorities,
        need_codes=("v2", "v4"),
    )
    return checks
