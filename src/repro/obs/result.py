"""The common run-result protocol shared by every runtime.

:class:`~repro.parsec.runtime.ParsecResult`,
:class:`~repro.legacy.runtime.LegacyResult`, and
:class:`~repro.parsec.dtd.DtdResult` all inherit :class:`RunResult`, so
``repro.experiments`` and ``repro.analysis`` can consume any runtime's
outcome through one surface:

- ``execution_time`` — virtual seconds (a dataclass field everywhere);
- ``n_tasks`` — task/work-unit count (field or property per runtime);
- ``metrics`` / ``report`` / ``output`` — the run's metrics snapshot,
  its :class:`~repro.obs.report.RunReport`, and the output tensor
  handle, attached by the :func:`repro.run` facade.

A result copies no fault or recovery count: the cluster's
:class:`~repro.sim.faults.FaultReport` (``cluster.faults.report``) is
the one record of those, and ``report.recovery`` is read off it.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["RunResult"]


class RunResult:
    """Base/protocol for runtime results (not itself a dataclass).

    Subclasses are dataclasses that provide ``execution_time`` and
    ``n_tasks``.
    """

    # attached by the repro.run() facade (class-level defaults so
    # results produced by lower-level entry points still conform)
    metrics: Optional[dict] = None
    report: Optional[Any] = None
    output: Optional[Any] = None

    @property
    def runtime_name(self) -> str:
        """Short runtime identifier derived from the result type."""
        return type(self).__name__.removesuffix("Result").lower()

    def summary(self) -> str:
        """One human line: runtime, task count, virtual time."""
        return (
            f"{self.runtime_name}: {self.n_tasks} tasks in "
            f"{self.execution_time:.4f}s (virtual)"
        )
