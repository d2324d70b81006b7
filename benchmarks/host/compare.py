"""``compare A.json B.json``: did B get worse than A, per workload and metric.

Each file is what ``run --out`` wrote; with ``run --repeat N`` it holds N
runs per workload and the comparison is between medians, with the
quartile spread of each side beside them. A metric whose spread exceeds
its bound cannot resolve a difference of that size, so the pair is
reported *unresolved* (not unchanged) unless every run of B reads better
than every run of A. Exact metrics and count-type layer metrics must be
identical.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from .catalogue import END_TO_END, PER_LAYER, SCOPED
from .report import fmt, table


def _runs(path: Path) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for entry in json.loads(path.read_text())["workloads"]:
        grouped.setdefault(entry["workload"], []).append(entry)
    return grouped


def _values(entries: list[dict], name: str) -> list[float]:
    out = []
    for entry in entries:
        merged = {**entry["end_to_end"], **entry["scoped"]}
        merged.update(entry.get("per_layer") or {})
        if name in merged:
            out.append(merged[name])
    return out


def _spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, as the driver computes it; 0 for a single run."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare_files(path_a: Path, path_b: Path) -> int:
    runs_a, runs_b = _runs(path_a), _runs(path_b)
    rows = []
    violations = 0
    for workload in runs_a:
        if workload not in runs_b:
            continue
        for metric in END_TO_END + SCOPED:
            a = _values(runs_a[workload], metric.name)
            b = _values(runs_b[workload], metric.name)
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            if metric.bound == 0:
                verdict = "ok" if set(a) == set(b) and len(set(a)) == 1 else "VIOLATION"
                worse = 0.0 if verdict == "ok" else float("nan")
                spread = 0.0
            else:
                sign = 1.0 if metric.better == "lower" else -1.0
                worse = sign * (med_b - med_a) / med_a
                allowed = max(metric.bound, metric.floor / abs(med_a))
                spread = max(_spread(a), _spread(b))
                b_all_better = all(
                    sign * (vb - va) < 0 for va in a for vb in b
                )
                if spread > metric.bound and not b_all_better:
                    verdict = "unresolved"
                elif worse > allowed:
                    verdict = "VIOLATION"
                else:
                    verdict = "ok"
            violations += verdict == "VIOLATION"
            rows.append(
                [
                    workload,
                    metric.name,
                    fmt(med_a),
                    fmt(med_b),
                    f"{worse:+.1%}",
                    "exact" if metric.bound == 0 else f"{metric.bound:.0%}",
                    f"{spread:.1%}",
                    verdict,
                ]
            )
        for metric in PER_LAYER:
            if metric.kind not in ("count", "exact"):
                continue
            a = _values(runs_a[workload], metric.name)
            b = _values(runs_b[workload], metric.name)
            if a and b and set(a) != set(b):
                violations += 1
                rows.append(
                    [workload, metric.name, fmt(a[0]), fmt(b[0]), "", "exact", ""]
                    + ["VIOLATION"]
                )
    headers = ["workload", "metric", "A", "B", "B worse by", "bound", "spread", ""]
    print(table(headers, rows))
    print(f"\n{violations} violation(s)")
    return 1 if violations else 0
