"""Export traces in the Chrome trace-event format.

PaRSEC's instrumentation exports traces for external viewers; the
modern equivalent is the Chrome/Perfetto trace-event JSON format
(load the output at ``chrome://tracing`` or https://ui.perfetto.dev).
Each simulated node becomes a process, each thread a track, each span a
complete ('X') event with the task category as its colour-grouping
name, so the result reads like the paper's Figures 10-13.
"""

from __future__ import annotations

import json

from repro.sim.trace import TaskCategory, TraceRecorder

__all__ = ["to_chrome_trace", "write_chrome_trace"]

#: simulated seconds per exported tick: the viewer's µs are virtual µs
#: (a division, not a multiply by 1e6, which rounds differently)
TIME_UNIT_S = 1.0e-6

#: map categories onto Chrome's stable colour names so GEMMs read red,
#: reads blue/purple, etc. — approximating the paper's palette
_COLOR_NAMES: dict[TaskCategory, str] = {
    TaskCategory.GEMM: "terrible",              # red
    TaskCategory.READ_A: "thread_state_runnable",  # blue
    TaskCategory.READ_B: "rail_animation",      # purple-ish
    TaskCategory.REDUCE: "bad",                 # yellow-orange
    TaskCategory.WRITE: "good",                 # green
    TaskCategory.SORT: "vsync_highlight_color",
    TaskCategory.DFILL: "grey",
    TaskCategory.COMM: "thread_state_runnable",
    TaskCategory.STEAL: "startup",              # orange: migrations stand out
    TaskCategory.NXTVAL: "black",
    TaskCategory.BARRIER: "grey",
    TaskCategory.OTHER: "white",
}


def to_chrome_trace(trace: TraceRecorder) -> dict:
    """Convert a trace into a Chrome trace-event object whose timestamps
    are virtual µs (one tick is :data:`TIME_UNIT_S` simulated seconds)."""
    events = []
    for span in trace.events:
        events.append(
            {
                "name": span.label,
                "cat": span.category.value,
                "ph": "X",
                "ts": span.t_start / TIME_UNIT_S,
                "dur": max(span.duration / TIME_UNIT_S, 0.001),
                "pid": span.node,
                "tid": span.thread,
                "cname": _COLOR_NAMES.get(span.category, "white"),
                "args": span.meta or {},
            }
        )
    # name the processes/threads like the paper's rows
    nodes = sorted({span.node for span in trace.events})
    for node in nodes:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": node,
                "args": {"name": f"node {node}"},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(trace: TraceRecorder, path: str) -> str:
    """Serialize :func:`to_chrome_trace` output to ``path``; returns it."""
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(trace), handle)
    return path
