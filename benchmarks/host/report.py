"""Turning child results into metrics, tables and a result file."""

from __future__ import annotations

import math
import os
import platform
import subprocess
from pathlib import Path
from typing import Optional

from . import checks
from .catalogue import END_TO_END, NOT_MEASURED, PER_LAYER, SCOPED
from .spans import HARNESS_PREFIX

ROOT = Path(__file__).resolve().parents[2]

#: the paper's v5-vs-best-original speedup, printed beside ours
PAPER_V5_SPEEDUP = 2.1


def end_to_end(untraced: dict) -> dict:
    """The common end-to-end metrics of one untraced run."""
    return {
        "setup_s": untraced["setup_s"],
        "wall_s": untraced["wall_s"],
        "cpu_s": untraced["cpu_s"],
        "sim_gemms_per_s": untraced["sim_gemms"] / untraced["wall_s"],
        "peak_rss_mb": untraced["peak_rss_mb"],
    }


def scoped(untraced: dict) -> dict:
    """End-to-end metrics only some workloads have, plus the exact ones."""
    ops = untraced["ops"]
    out = {
        "failed_ops_frac": len(checks.failed_ops(untraced)) / len(ops),
        # fsum: serve_mixed finishes its jobs in a different order each run
        "virt_time_s": math.fsum(op["virt_s"] for op in ops),
    }
    out.update(untraced["scoped"])
    return out


def per_layer(untraced: dict, traced: dict, stepwise_match: int) -> dict:
    """Everything the traced run measured, plus the two harness guards."""
    out = dict(traced["layer"])
    out["harness.trace_overhead_frac"] = (
        traced["wall_s"] - untraced["wall_s"]
    ) / untraced["wall_s"]
    out["harness.stepwise_virt_match"] = stepwise_match
    return out


def driver_metrics(values: dict, metrics) -> dict:
    """``{"name": {"value", "unit"}}`` over ``metrics``, with the
    not-measured sentinel where this workload has no value."""
    return {
        m.name: {"value": values.get(m.name, NOT_MEASURED), "unit": m.unit}
        for m in metrics
    }


def layer_shares(traced: dict) -> list[tuple[str, float, float]]:
    """``(layer, self seconds, share)`` rows, largest first. Shares are of
    the summed self time, which equals the body's wall for an in-process
    workload and the clients' summed time for ``serve_mixed``."""
    own = traced["self_time_s"]
    total = sum(own.values())
    rows = [(name, seconds, seconds / total) for name, seconds in own.items()]
    return sorted(rows, key=lambda row: -row[1])


def accounted_share(traced: dict) -> float:
    """Share of the traced body spent inside named layers (not harness)."""
    return sum(
        share
        for name, _, share in layer_shares(traced)
        if not name.startswith(HARNESS_PREFIX)
    )


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------
def fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    if abs(value) >= 1000:
        return f"{value:,.1f}"
    if abs(value) >= 1:
        return f"{value:.3f}"
    return f"{value:.6g}"


def table(headers: list[str], rows: list[list[str]]) -> str:
    cells = [headers] + rows
    widths = [max(len(str(r[i])) for r in cells) for i in range(len(headers))]
    lines = ["  ".join(str(c).ljust(w) for c, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _bound_text(metric) -> str:
    if metric.bound is None:
        return ""
    if metric.bound == 0:
        return "exact"
    text = f"{metric.bound:.0%}"
    return f"{text} or {metric.floor:g} {metric.unit}" if metric.floor else text


def print_workload(entry: dict) -> None:
    """Every metric of one workload, by name, with unit and sample count."""
    untraced = entry["untraced"]
    n_ops = len(untraced["ops"])
    print(f"\n== {entry['workload']} (seed {untraced['seed']}, {untraced['size']}) ==")
    samples = {
        "setup_s": f"{len(untraced['setup_samples_s'])} set-ups",
        "job_cold_p50_ms": "cold point jobs",
        "job_hit_p50_ms": "resubmits",
    }
    rows = []
    values = {**entry["end_to_end"], **entry["scoped"]}
    for metric in END_TO_END + SCOPED:
        value = values.get(metric.name)
        if value is None:
            continue
        note = samples.get(metric.name, f"{n_ops} ops")
        if metric.name == "virt_v5_speedup":
            note = f"paper reports about {PAPER_V5_SPEEDUP}x"
        rows.append(
            [metric.name, fmt(value), metric.unit, _bound_text(metric), note]
        )
    print(table(["end-to-end metric", "value", "unit", "bound", "n"], rows))
    failed = checks.failed_ops(untraced)
    if entry["traced"] is not None:
        failed += checks.failed_ops(entry["traced"])
    for op in failed:
        bad = sorted(k for k, v in op["checks"].items() if v is False)
        print(f"FAILED op {op['id']}: {bad} {op.get('expected_detail', '')}")
    traced = entry["traced"]
    if traced is None:
        return
    rows = [
        [m.name, fmt(entry["per_layer"][m.name]), m.unit, m.kind]
        for m in PER_LAYER
        if m.name in entry["per_layer"]
    ]
    print()
    print(table(["per-layer metric", "value", "unit", "from"], rows))
    rows = [
        [name, f"{seconds:.3f}", f"{share:.1%}"]
        for name, seconds, share in layer_shares(traced)
    ]
    print()
    print(table(["layer (traced run)", "self s", "share"], rows))
    print(
        f"layers account for {accounted_share(traced):.1%} of the traced body; "
        f"{traced['n_spans']} spans in {traced['trace_file']}"
    )


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() or None


def provenance(env: dict, seed: int, child_info: dict) -> dict:
    return {
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "pinned_env": env,
        "seed": seed,
        **child_info,
    }
