"""Hold CPython's cyclic collector off for the length of a run.

A simulation leaves nothing for the collector to find: a finished
process, a finished level's task graph and a dropped workload's tensors
all die by reference count (DESIGN.md section 6). What the collector
does do during a run is walk the *live* task graph again and again —
work proportional to the problem that never frees anything, 11-14% of
the RBGS ladder's host time and growing with node count. So
:func:`paused` switches it off around :func:`repro.core.api.build` and
:func:`repro.core.api.run`, and nowhere else. This is the only module
under ``src/repro`` that touches :mod:`gc`.

There is no knob and no threshold tuning. The collector is a
process-wide switch while runs are per-thread (the job service's worker
threads overlap), hence the bookkeeping: the first thread in records
whether the collector was enabled and disables it, the last one out
restores it — a collector the caller had disabled stays disabled.

One thing a dropped run leaves behind is still cyclic: its cluster
skeleton, a few thousand objects whatever the problem size. Between two
runs the collector is on for too few allocations to ever fire, and under
sustained service load the count of threads inside may never reach zero
at all, so the skeletons are not left to chance: every thread's
outermost exit runs the one collection the interpreter's own policy has
fallen due for — the oldest generation whose count is over its
threshold, else the young one. That is a young collection ten times out
of eleven, and when an older generation's turn comes the run's task
graphs are already freed, so nothing proportional to the problem is
walked. A caller that runs with the collector disabled gets no
collection from here either.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager

__all__ = ["paused"]

_lock = threading.Lock()
_local = threading.local()
#: threads currently inside an outermost scope
_inside = 0
#: ``gc.isenabled()`` as the first of them found it
_was_enabled = False


@contextmanager
def paused():
    """Scope (or decorator, ``@paused()``) with the collector off.

    Re-entrant per thread — ``run`` calls ``build`` — and exception
    safe: whatever the body raises, the collector's state is restored
    on the way out.
    """
    global _inside, _was_enabled
    if getattr(_local, "held", False):
        yield
        return
    with _lock:
        if _inside == 0:
            _was_enabled = gc.isenabled()
            gc.disable()
        _inside += 1
    _local.held = True
    try:
        yield
    finally:
        _local.held = False
        # ``_was_enabled`` cannot change while this thread is inside
        if _was_enabled:
            _collect_what_is_due()
        with _lock:
            _inside -= 1
            if _inside == 0 and _was_enabled:
                gc.enable()


def _collect_what_is_due() -> None:
    """The collection the interpreter would have run by now: explicit
    collections advance the older generations' counts exactly like
    automatic ones, so the interpreter's thresholds decide."""
    counts, thresholds = gc.get_count(), gc.get_threshold()
    due = [g for g in (1, 2) if counts[g] > thresholds[g]]
    gc.collect(max(due, default=0))
