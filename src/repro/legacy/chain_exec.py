"""Executing one GEMM chain the way the generated Fortran does.

The op sequence per chain, faithful to Section III-A:

1. local buffer management (``MA_PUSH_GET`` — a small core-time cost);
2. ``DFILL`` — zero the chain's C buffer;
3. for each GEMM in the chain: blocking ``GET_HASH_BLOCK`` of the A
   tile, blocking ``GET_HASH_BLOCK`` of the B tile, then the
   ``dgemm('T','N', ...)`` — the gets are issued *immediately preceding*
   the GEMM call, which is exactly why the paper's Figure 12/13 traces
   show zero communication/computation overlap;
4. for each IF branch whose predicate holds: ``SORT_4`` into a
   temporary, then blocking atomic ``ADD_HASH_BLOCK`` into the Global
   Array — serially, in branch order.

In REAL data mode the NumPy arithmetic actually happens, so the i2
Global Array ends up with verifiable contents. The chain's block
references name their tensors; ``ga`` resolves each to the run's array.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ga.hash_block import add_hash_block, get_hash_block
from repro.sim.trace import TaskCategory
from repro.tce.subroutine import ChainSpec, sort_4

__all__ = ["execute_chain"]


def execute_chain(
    cluster, ga, node, thread: int, chain: ChainSpec, on_commit=None
):
    """Generator helper: run one chain to completion on one rank.

    ``on_commit``, if given, is invoked synchronously right before the
    publication phase (the SORT_4 / ADD_HASH_BLOCK loop) begins. Up to
    that point the chain has only read shared data and touched private
    buffers, so an aborted attempt leaves no trace and the chain can be
    re-executed wholesale; past it the chain must run to completion.
    """
    machine = cluster.machine
    real = cluster.real
    engine = cluster.engine
    # with tracing off no span is recorded, so no label or meta is built
    traced = node.trace.enabled
    record = node.trace.record
    node_id = node.node_id
    label = f"c{chain.chain_id}" if traced else ""

    # MA_PUSH_GET and friends: local memory management bookkeeping
    yield node.occupy(machine.legacy_call_overhead_s)

    # DFILL: zero-initialize the C buffer
    t_start = engine.now
    yield node.charge(machine.zero_fill(chain.c_size))
    if traced:
        record(
            node_id, thread, TaskCategory.DFILL, f"DFILL:{label}", t_start, engine.now
        )
    C: Optional[np.ndarray] = np.zeros((chain.m, chain.n)) if real else None

    for gemm in chain.gemms:
        a_flat = yield from get_hash_block(
            ga,
            node,
            thread,
            ga.lookup(gemm.a.tensor.name),
            gemm.a.lo,
            gemm.a.hi,
            label=f"GET_A:{label}.{gemm.position}" if traced else "",
        )
        b_flat = yield from get_hash_block(
            ga,
            node,
            thread,
            ga.lookup(gemm.b.tensor.name),
            gemm.b.lo,
            gemm.b.hi,
            label=f"GET_B:{label}.{gemm.position}" if traced else "",
        )
        # per-call bookkeeping (hash lookups, MA stack)
        yield node.occupy(machine.legacy_call_overhead_s)
        t_start = engine.now
        yield node.charge(machine.gemm(gemm.m, gemm.n, gemm.k))
        if traced:
            record(
                node_id,
                thread,
                TaskCategory.GEMM,
                f"GEMM:{label}.{gemm.position}",
                t_start,
                engine.now,
                {"chain": chain.chain_id, "position": gemm.position},
            )
        if real:
            a = a_flat.reshape(gemm.k, gemm.m)
            b = b_flat.reshape(gemm.k, gemm.n)
            C += a.T @ b  # dgemm('T', 'N', ...)

    tile = C.reshape(chain.tile_shape) if real else None
    if on_commit is not None:
        on_commit()
    for sw in chain.active_sorts:
        t_start = engine.now
        yield node.charge(machine.sort4(chain.c_size))
        if traced:
            record(
                node_id,
                thread,
                TaskCategory.SORT,
                f"SORT_4:{label}.{sw.sort_index}",
                t_start,
                engine.now,
            )
        sorted_flat = sort_4(tile, sw) if real else None
        yield from add_hash_block(
            ga,
            node,
            thread,
            ga.lookup(sw.target.tensor.name),
            sw.target.lo,
            sw.target.hi,
            sorted_flat,
            label=f"ADD_HASH_BLOCK:{label}.{sw.sort_index}" if traced else "",
            tag=(chain.level, chain.chain_id, sw.sort_index),
        )

    # MA_POP_STACK
    yield node.occupy(machine.legacy_call_overhead_s)
