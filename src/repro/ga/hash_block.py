"""GET_HASH_BLOCK / ADD_HASH_BLOCK — the TCE data-movement calls.

These are the calls the generated Fortran inserts around every GEMM
chain: a blocking fetch of the A/B operand tiles before the chain, and
an atomic accumulate of the sorted C tile after it. They wrap the
one-sided :class:`~repro.ga.runtime.GlobalArrays` ops and trace
themselves, which is how the Figure 12/13 trace reproduction shows
communication "interleaved with computation, however ... not
overlapped".
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sim.trace import TaskCategory

__all__ = ["get_hash_block", "add_hash_block"]


def get_hash_block(ga, node, thread: int, array, lo: int, hi: int, label: str = ""):
    """Generator helper: blocking tile fetch, traced as communication.

    Returns the fetched data — a read-only snapshot, see
    :mod:`repro.ga.array` — (REAL mode) or None (SYNTH mode). The
    recorded span covers the full blocking time — request, queueing at
    the owner, transport, and the local landing cost — because that is
    what the calling rank experiences.
    """
    t_start = ga.engine.now
    hits_before = ga.cache_hits
    data = yield from ga.fetch(node.node_id, array, lo, hi)
    if node.trace.enabled:  # off: no meta, label or record
        meta = {"bytes": array.nbytes(lo, hi)}
        if ga.remote_cache is not None:
            # knobs-on only, so default-path traces stay byte-identical
            meta["cached"] = ga.cache_hits > hits_before
        node.trace.record(
            node.node_id,
            thread,
            TaskCategory.COMM,
            label or f"GET_HASH_BLOCK:{array.name}",
            t_start,
            ga.engine.now,
            meta,
        )
    return data


def add_hash_block(
    ga,
    node,
    thread: int,
    array,
    lo: int,
    hi: int,
    data: Optional[np.ndarray],
    label: str = "",
    tag=None,
):
    """Generator helper: blocking atomic accumulate, traced as a write.

    ``tag`` identifies the logical contribution for the array's
    ordered-accumulation mode (bitwise-reproducible runs)."""
    t_start = ga.engine.now
    yield from ga.accumulate(node.node_id, array, lo, hi, data, tag=tag)
    if node.trace.enabled:
        node.trace.record(
            node.node_id,
            thread,
            TaskCategory.WRITE,
            label or f"ADD_HASH_BLOCK:{array.name}",
            t_start,
            ga.engine.now,
            {"bytes": array.nbytes(lo, hi)},
        )
