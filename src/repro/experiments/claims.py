"""Paper claims as data, and the one rule for when they gate.

Each CLI experiment has a report function (what its subcommand prints)
and a claims function returning :class:`ShapeCheck`s; a claim's band is
written only there. The CLI and the benches print the report and gate
on the claims, unless :func:`informational` says why they do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional


@dataclass
class ShapeCheck:
    """One claim extracted from the paper, evaluated on our data.
    ``skipped``: the run lacks the claim's probe points (e.g. the tiny
    fig9 grid has no 7 cores/node); it counts as passed but shows SKIP."""

    name: str
    passed: bool
    detail: str
    skipped: bool = False

    @property
    def line(self) -> str:
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        return f"[{status}] {self.name}: {self.detail}"


def render_claims(checks: Iterable[ShapeCheck]) -> str:
    return "\n".join(check.line for check in checks)


def informational(
    scale: str, workload: str = "t2_7", stealing: bool = False, skew_factor: int = 1
) -> Optional[str]:
    """Why the paper-shape claims (Figures 9-13, Section IV) do not gate
    this run, or None when they do.

    The contention behind them (GA-path saturation, network floods,
    chain starvation) shows only for the paper's t2_7 workload at paper
    scale, static and unskewed. The reason completes "the shape checks
    <reason> are informational only". The equivalence, comm-matrix and
    chaos claims hold at every scale and always gate.
    """
    if stealing or skew_factor > 1:
        return (
            "describe the paper's static, unskewed configuration; with "
            "--stealing/--skew-factor they"
        )
    if workload.split(":")[0].strip() != "t2_7":
        return (
            "are paper claims about the t2_7 sub-kernel; for --workload "
            f"{workload} they"
        )
    if scale not in ("paper", "full"):
        return f"describe the paper-scale workload; at --scale {scale} they"
    return None
