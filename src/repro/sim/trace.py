"""Execution tracing — the stand-in for PaRSEC's instrumentation module.

The paper generates Figures 10-13 with "PaRSEC's native performance
instrumentation module", and notes the same API can instrument arbitrary
code (it traces the *original* NWChem run too, Fig. 12). We mirror that:
:class:`TraceRecorder` is runtime-agnostic; both the legacy CGP runtime
and the PaRSEC runtime record :class:`TraceEvent` spans into it, one row
per (node, thread), colour-coded by :class:`TaskCategory` exactly like
the paper's traces (red GEMM, blue read-A, purple read-B, yellow
reduction, light-green write, grey idle).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

__all__ = ["TaskCategory", "TraceEvent", "TraceRecorder"]


class TaskCategory(str, Enum):
    """Task-class colour categories, matching the paper's trace legend."""

    GEMM = "gemm"          # red in the paper's traces
    READ_A = "read_a"      # blue
    READ_B = "read_b"      # purple
    REDUCE = "reduce"      # yellow
    SORT = "sort"
    WRITE = "write"        # light green
    DFILL = "dfill"
    COMM = "comm"          # communication (GET_HASH_BLOCK etc.)
    STEAL = "steal"        # work-stealing protocol events
    NXTVAL = "nxtval"
    BARRIER = "barrier"
    OTHER = "other"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One closed span on one simulated thread.

    ``slots=True``: traced runs record one of these per task/comm span,
    so the per-instance ``__dict__`` is worth eliminating.
    """

    node: int
    thread: int
    category: TaskCategory
    label: str
    t_start: float
    t_end: float
    meta: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


class TraceRecorder:
    """Collects spans; offers filtered views and per-category totals.

    Recording can be disabled wholesale (``enabled=False``) for the big
    performance sweeps where only end-to-end time matters.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: list[TraceEvent] = []

    def record(
        self,
        node: int,
        thread: int,
        category: TaskCategory,
        label: str,
        t_start: float,
        t_end: float,
        meta: Optional[dict] = None,
    ) -> None:
        """Record one closed span (no-op when disabled)."""
        if not self.enabled:
            return
        if t_end < t_start:
            raise ValueError(f"span ends before it starts: {label} {t_start}..{t_end}")
        self.events.append(
            TraceEvent(node, thread, category, label, t_start, t_end, meta)
        )

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def filtered(
        self,
        category: Optional[TaskCategory] = None,
        node: Optional[int] = None,
        predicate: Optional[Callable[[TraceEvent], bool]] = None,
    ) -> list[TraceEvent]:
        """Events matching all the given criteria."""
        out = self.events
        if category is not None:
            out = [e for e in out if e.category == category]
        if node is not None:
            out = [e for e in out if e.node == node]
        if predicate is not None:
            out = [e for e in out if predicate(e)]
        return list(out)

    def threads(self) -> list[tuple[int, int]]:
        """Sorted list of distinct (node, thread) rows."""
        return sorted({(e.node, e.thread) for e in self.events})

    def by_thread(self) -> dict[tuple[int, int], list[TraceEvent]]:
        """Events grouped per (node, thread), each group time-sorted."""
        groups: dict[tuple[int, int], list[TraceEvent]] = {}
        for event in self.events:
            groups.setdefault((event.node, event.thread), []).append(event)
        for spans in groups.values():
            spans.sort(key=lambda e: (e.t_start, e.t_end))
        return groups

    def makespan(self) -> float:
        """Latest span end minus earliest span start (0 for empty traces)."""
        if not self.events:
            return 0.0
        start = min(e.t_start for e in self.events)
        end = max(e.t_end for e in self.events)
        return end - start

    def total_time_by_category(self) -> dict[TaskCategory, float]:
        """Sum of span durations per category."""
        totals: dict[TaskCategory, float] = {}
        for event in self.events:
            totals[event.category] = totals.get(event.category, 0.0) + event.duration
        return totals

    def count_by_category(self) -> dict[TaskCategory, int]:
        """Number of spans per category."""
        counts: dict[TaskCategory, int] = {}
        for event in self.events:
            counts[event.category] = counts.get(event.category, 0) + 1
        return counts

