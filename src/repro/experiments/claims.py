"""Paper experiments as declared values, and when their claims gate.

An :class:`Experiment` declares its cells, their reduction, its report
and its claims (:class:`ShapeCheck`s); :meth:`Experiment.run` is the one
driver. The CLI, the bench and the job service look a declaration up by
name (:func:`experiment`); :func:`informational` says where the
paper-shape claims do not gate.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional

from repro.experiments.sweep import SweepExecutor, SweepStats
from repro.util.errors import ConfigurationError


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


@dataclass(frozen=True)
class Experiment:
    """One experiment: ``cells(**params)`` expands its parameters into
    sweep cells, ``reduce(results, **params)`` folds the merged results
    into what ``report`` renders and ``claims`` judges. ``defaults`` has
    every parameter; ``paper_shape`` claims gate only where
    :func:`informational` allows."""

    name: str
    cells: Callable[..., list]
    reduce: Callable[..., Any]
    report: Callable[[Any], str]
    claims: Callable[[Any], list[ShapeCheck]]
    defaults: Mapping[str, Any]
    paper_shape: bool = False

    def params(self, **params) -> dict:
        """``params`` over the defaults; a None parameter is its default."""
        given = {k: v for k, v in params.items() if v is not None}
        return {**self.defaults, **given}

    def run(self, jobs=1, progress=None, **params) -> tuple[Any, SweepStats]:
        """Expand, run the cells (``jobs > 1``: in worker processes; the
        merge is by key, so the result is the same at any job count),
        reduce."""
        p = self.params(**params)
        where = ":".join(str(p[k]) for k in ("workload", "scale") if k in p)
        executor = SweepExecutor(jobs, progress, f"{self.name}[{where}]")
        results, stats = executor.run(self.cells(**p))
        return self.reduce(results, **p), stats

    def note(self, **params) -> Optional[str]:
        """Why this run's claims do not gate, or None when they do."""
        if not self.paper_shape:
            return None
        p = self.params(**params)
        keys = ("scale", "workload", "stealing", "skew_factor")
        return informational(**{k: p[k] for k in keys if k in p})


#: name -> ``module:attribute`` of its declaration, imported on first use
#: (the declaring modules import this one)
_DECLARED = {
    "fig9": "repro.experiments.fig9:FIG9",
    "fig10_11": "repro.experiments.traces:FIG10_11",
    "fig12_13": "repro.experiments.traces:FIG12_13",
    "equivalence": "repro.experiments.equivalence:EQUIVALENCE",
    "ablations": "repro.experiments.ablations:ABLATIONS",
    "comm": "repro.experiments.ablations:COMM",
    "chaos": "repro.experiments.chaos:CHAOS",
}
EXPERIMENT_NAMES = tuple(_DECLARED)


def experiment(name: str) -> Experiment:
    """The declaration of the experiment called ``name``."""
    if name not in _DECLARED:
        raise ConfigurationError(
            f"unknown experiment {name!r}: expected one of {EXPERIMENT_NAMES}"
        )
    module, attribute = _DECLARED[name].split(":")
    return getattr(importlib.import_module(module), attribute)
