"""CCSD over Dynamic Task Discovery — the contrasted implementation.

A *skeleton program* that walks the same inspection metadata the PTG
uses, but expresses the computation the DTD way (Section VI's "building
the entire DAG of execution in memory"): every READ/GEMM/REDUCE/SORT/
WRITE becomes an :meth:`~repro.parsec.dtd.DtdRuntime.insert` call with
declared data accesses, and the runtime discovers the dependencies "by
matching input and output data".

The task organization mirrors variant v5 (parallel GEMMs, one fused
SORT, single WRITE per owner segment); serialization of concurrent
chain outputs into the same i2 block falls out of DTD's read/write
dependence matching on the per-block region handles — no explicit
mutex needed, at the price of materializing every edge.
"""

from __future__ import annotations

from repro.core.inspector import inspect_subroutine
from repro.core.metadata import Metadata
from repro.core.ptg_build import read_block, reduce_pair, sort_fused
from repro.core.variants import GEMM_OFFSET, V5
from repro.parsec.dtd import AccessMode, DataHandle, DtdKind, DtdResult, DtdRuntime
from repro.sim.cluster import Cluster
from repro.sim.trace import TaskCategory
from repro.tce.subroutine import Subroutine

__all__ = ["run_over_dtd", "build_dtd_skeleton"]

# The bodies read their task's indices from ``ctx.params`` and the level
# from ``ctx.md``, and their data from ``ctx.values`` in access order:
# one body per kind, nothing bound per task.


def _read_body(which: str):
    def body(ctx):
        ref = getattr(ctx.md.gemm(*ctx.params), which)
        ctx.values[0] = yield from read_block(ctx, ref)

    return body


def _gemm_body(ctx):
    gemm = ctx.md.gemm(*ctx.params)
    yield ctx.charge(ctx.machine.gemm(gemm.m, gemm.n, gemm.k))
    if ctx.real:
        a, b, _ = ctx.values
        ctx.values[2] = a.reshape(gemm.k, gemm.m).T @ b.reshape(gemm.k, gemm.n)


def _reduce_body(ctx):
    L1, _ = ctx.params
    x, y, _ = ctx.values
    ctx.values[2] = yield from reduce_pair(ctx, ctx.md.specs[L1], x, y)


def _sort_body(ctx):
    (L1,) = ctx.params
    ctx.values[1] = yield from sort_fused(ctx, ctx.md.specs[L1], ctx.values[0])


def _write_body(ctx):
    md = ctx.md
    L1, seg_index = ctx.params
    segs = md.chains[L1].write_segs
    seg = segs[seg_index]
    yield ctx.charge(ctx.machine.axpy(seg.size))
    if ctx.real:
        piece = ctx.values[0][seg.lo - segs[0].lo : seg.hi - segs[0].lo]
        md.output_array().accumulate_range_direct(
            seg.lo, seg.hi, piece, tag=(md.subroutine.level, "dtd", L1, seg_index)
        )


_R, _RW, _W = AccessMode.READ, AccessMode.RW, AccessMode.WRITE
READ_A = DtdKind("READ_A", _read_body("a"), (_W,), TaskCategory.READ_A)
READ_B = DtdKind("READ_B", _read_body("b"), (_W,), TaskCategory.READ_B)
GEMM = DtdKind("GEMM", _gemm_body, (_R, _R, _W), TaskCategory.GEMM)
REDUCE = DtdKind("REDUCE", _reduce_body, (_R, _R, _W), TaskCategory.REDUCE)
SORT = DtdKind("SORT", _sort_body, (_R, _W), TaskCategory.SORT)
# RW on the per-block region handle: DTD's dependence matching
# serializes concurrent chains into the same block
WRITE_C = DtdKind("WRITE_C", _write_body, (_R, _RW), TaskCategory.WRITE)


def build_dtd_skeleton(cluster: Cluster, md: Metadata) -> DtdRuntime:
    """The skeleton program: a runtime over ``md`` with every task of
    the computation inserted. ``md`` is v5's inspection (chain height
    1), so segment ``i`` is GEMM ``i`` and the reduction tree pairs the
    GEMMs' partial Cs. A chain's intermediates are unnamed handles
    passed by reference; only the i2 regions, shared across chains, are
    declared by key."""
    runtime = DtdRuntime(cluster, md)
    insert = runtime.insert
    for spec, chain in zip(md.specs, md.chains):
        L1 = spec.chain_id
        node = chain.node
        c_size = spec.c_size
        # one value per chain and offset, shared by the chain's tasks
        read_priority = md.priority(L1, md.variant.read_offset)
        gemm_priority = md.priority(L1, GEMM_OFFSET)
        priority = md.priority(L1, 0)
        # the partial Cs by tree source: GEMM i's, then each step's
        sources: list[DataHandle] = []
        for gemm, a_owner, b_owner in zip(spec.gemms, chain.a_owner, chain.b_owner):
            params = (L1, gemm.position)
            a = DataHandle(None, gemm.a.hi - gemm.a.lo, a_owner)
            b = DataHandle(None, gemm.b.hi - gemm.b.lo, b_owner)
            c = DataHandle(None, c_size, node)
            sources.append(c)
            insert(READ_A, params, (a,), a_owner, read_priority)
            insert(READ_B, params, (b,), b_owner, read_priority)
            insert(GEMM, params, (a, b, c), node, gemm_priority)

        # the reduction tree, unrolled (DTD has no symbolic tree: the
        # skeleton enumerates it); the chain's C is its last step's
        # output, or its one GEMM's
        tree = md.trees[L1]
        for step, (x, y) in enumerate(zip(tree.left, tree.right)):
            sources.append(DataHandle(None, c_size, node))
            inputs = (sources[x], sources[y], sources[-1])
            insert(REDUCE, (L1, step), inputs, node, priority)

        sorted_c = DataHandle(None, c_size, node)
        insert(SORT, (L1,), (sources[-1], sorted_c), node, priority)
        segs = chain.write_segs
        for w, seg in enumerate(segs):
            region = runtime.data(
                f"i2[{segs[0].lo}:{segs[-1].hi}]@{w}", seg.size, seg.node
            )
            insert(WRITE_C, (L1, w), (sorted_c, region), seg.node, priority)
    return runtime


def run_over_dtd(cluster: Cluster, subroutine: Subroutine) -> DtdResult:
    """Inspect, build the DTD skeleton (v5 organization), execute."""
    md = inspect_subroutine(subroutine, cluster, V5)
    return build_dtd_skeleton(cluster, md).execute()
