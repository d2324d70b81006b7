"""Quantitative trace metrics.

These extract the numbers the paper reads off its trace figures:

- :func:`startup_idle_fraction` — the grey wedge at the left of
  Figure 11 (variant v2's network flood) vs. Figure 10 (v4);
- :func:`comm_compute_overlap` — Figure 12's point that in the original
  code communication is "interleaved with computation, however it is
  not overlapped" (the overlap is ~0 for the legacy runtime and large
  for PaRSEC, whose transfers happen off-worker);
- :func:`category_time_share` — Figure 13's comparison of
  GET_HASH_BLOCK span lengths against GEMM span lengths.

All functions operate on a :class:`~repro.sim.trace.TraceRecorder`.
"""

from __future__ import annotations

from typing import Iterable

from repro.sim.trace import TaskCategory, TraceEvent, TraceRecorder

__all__ = [
    "merge_intervals",
    "busy_fraction",
    "thread_utilization",
    "idle_gaps",
    "startup_idle_fraction",
    "comm_compute_overlap",
    "category_time_share",
]


def merge_intervals(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of possibly-overlapping closed intervals, sorted."""
    items = sorted(i for i in intervals if i[1] > i[0])
    merged: list[tuple[float, float]] = []
    for start, end in items:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _interval_total(intervals: list[tuple[float, float]]) -> float:
    return sum(end - start for start, end in intervals)


def busy_fraction(trace: TraceRecorder) -> float:
    """Mean busy fraction over all (node, thread) rows."""
    utilizations = thread_utilization(trace)
    if not utilizations:
        return 0.0
    return sum(utilizations.values()) / len(utilizations)


def thread_utilization(trace: TraceRecorder) -> dict[tuple[int, int], float]:
    """Busy fraction per (node, thread) over the trace makespan."""
    if not trace.events:
        return {}
    t0 = min(e.t_start for e in trace.events)
    t1 = max(e.t_end for e in trace.events)
    span = t1 - t0
    if span <= 0:
        return {}
    out = {}
    for row, events in trace.by_thread().items():
        merged = merge_intervals((e.t_start, e.t_end) for e in events)
        out[row] = min(1.0, _interval_total(merged) / span)
    return out


def idle_gaps(
    trace: TraceRecorder, row: tuple[int, int]
) -> list[tuple[float, float]]:
    """Idle intervals of one thread between trace start and end."""
    events = trace.by_thread().get(row, [])
    if not events:
        return []
    t0 = min(e.t_start for e in trace.events)
    t1 = max(e.t_end for e in trace.events)
    busy = merge_intervals((e.t_start, e.t_end) for e in events)
    gaps = []
    cursor = t0
    for start, end in busy:
        if start > cursor:
            gaps.append((cursor, start))
        cursor = max(cursor, end)
    if cursor < t1:
        gaps.append((cursor, t1))
    return gaps


def startup_idle_fraction(trace: TraceRecorder) -> float:
    """Mean fraction of the makespan before each thread's first GEMM.

    This is what the paper reads off Figure 11: "variant v2 — which
    lacks task priorities — has too much idle time in the beginning".
    Threads that never compute contribute 1.0.
    """
    if not trace.events:
        return 0.0
    t0 = min(e.t_start for e in trace.events)
    makespan = trace.makespan()
    if makespan <= 0:
        return 0.0
    fractions = []
    for row, events in trace.by_thread().items():
        compute_starts = [
            e.t_start for e in events if e.category is TaskCategory.GEMM
        ]
        if compute_starts:
            fractions.append((min(compute_starts) - t0) / makespan)
        else:
            fractions.append(1.0)
    return sum(fractions) / len(fractions)


def comm_compute_overlap(trace: TraceRecorder) -> float:
    """Fraction of communication time overlapped with computation.

    Each thread's blocking communication intervals (COMM spans — the
    GET/ADD calls of the legacy code) are intersected with *that same
    thread's* compute intervals. For blocking code this is exactly 0 —
    the Figure 12 observation: "the communication is not overlapped,
    because it is not given a chance to do so. There is no computation
    in the code between the point where the data transfer starts and
    the point where the data is needed." PaRSEC never records blocking
    COMM spans at all; its transfers happen off-worker.
    """
    comm_categories = {TaskCategory.COMM}
    compute_categories = {
        TaskCategory.GEMM,
        TaskCategory.SORT,
        TaskCategory.REDUCE,
        TaskCategory.DFILL,
    }
    total_comm = 0.0
    total_overlap = 0.0
    for node_id in {e.node for e in trace.events}:
        events = trace.filtered(node=node_id)
        comm_by_thread: dict[int, list[TraceEvent]] = {}
        compute_by_thread: dict[int, list[tuple[float, float]]] = {}
        for event in events:
            if event.category in comm_categories:
                comm_by_thread.setdefault(event.thread, []).append(event)
            elif event.category in compute_categories:
                compute_by_thread.setdefault(event.thread, []).append(
                    (event.t_start, event.t_end)
                )
        for thread, comms in comm_by_thread.items():
            compute = merge_intervals(compute_by_thread.get(thread, []))
            for comm in comms:
                total_comm += comm.duration
                total_overlap += _intersection((comm.t_start, comm.t_end), compute)
    if total_comm == 0:
        return 0.0
    return total_overlap / total_comm


def blocking_comm_fraction(trace: TraceRecorder) -> float:
    """Share of total thread-busy time spent in blocking communication.

    The quantity Figure 13 shows visually: the blue/purple/light-green
    rectangles (GET_HASH_BLOCK / writes) are long compared to the red
    GEMMs — the ranks burn a large fraction of their cycles waiting on
    data movement.
    """
    totals = trace.total_time_by_category()
    comm = totals.get(TaskCategory.COMM, 0.0) + totals.get(TaskCategory.WRITE, 0.0)
    busy = sum(totals.values()) - totals.get(TaskCategory.BARRIER, 0.0)
    if busy <= 0:
        return 0.0
    return comm / busy


def _intersection(
    interval: tuple[float, float], merged: list[tuple[float, float]]
) -> float:
    lo, hi = interval
    out = 0.0
    for start, end in merged:
        if end <= lo:
            continue
        if start >= hi:
            break
        out += min(hi, end) - max(lo, start)
    return out


def category_time_share(trace: TraceRecorder) -> dict[TaskCategory, float]:
    """Each category's share of total recorded span time."""
    totals = trace.total_time_by_category()
    grand = sum(totals.values())
    if grand == 0:
        return {}
    return {category: duration / grand for category, duration in totals.items()}
