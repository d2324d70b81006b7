"""Harness-level spans: in-memory records around each call into a layer.

A span is ``name, start, end, parent, op`` plus the counts recorded at
the same boundary. Spans live in a list until the run ends and are
written out once. A span's *self time* is its duration minus the part
of that interval its child spans cover (children of concurrent clients
may overlap, so coverage is the union of their intervals).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = ["Tracer", "calibrated", "self_times", "layer_self_times"]

#: spans of the harness itself (glue between layer calls); everything
#: else is named ``<layer>.<what>`` after a module under ``src/repro``
HARNESS_PREFIX = "harness."


class Tracer:
    """Collects spans for one traced workload run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[dict]:
        """Time the enclosed call; yields the record so the caller can
        attach ``counts`` measured at this boundary."""
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "op": op,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int],
        op: Optional[str],
        **counts,
    ) -> int:
        """Record a span from timestamps taken elsewhere (client threads
        of ``serve_mixed`` stamp events and file the spans afterwards)."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "op": op,
            "start": start,
            "end": end,
            "counts": counts,
        }
        self.spans.append(record)
        return record["id"]


def calibrated(spans: list[dict], clock) -> list[dict]:
    """Copies of ``spans`` with both stamps read off the calibrated clock
    (see :mod:`calibrate`), so every duration taken from them is in
    calibrated seconds."""
    return [
        {**span, "start": clock.warp(span["start"]), "end": clock.warp(span["end"])}
        for span in spans
    ]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Self time per span, in span order."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return [
        (span["end"] - span["start"]) - _covered(children.get(span["id"], []))
        for span in spans
    ]


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Self time summed by span name."""
    out: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        out[span["name"]] = out.get(span["name"], 0.0) + own
    return out


def total_by_name(spans: list[dict], name: str) -> float:
    """Summed duration (not self time) of every span called ``name``."""
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def count_by_name(spans: list[dict], name: str, key: str) -> float:
    """Summed ``counts[key]`` over every span called ``name``."""
    return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)
