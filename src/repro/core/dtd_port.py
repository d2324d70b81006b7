"""CCSD over Dynamic Task Discovery — the contrasted implementation.

A *skeleton program* that walks the same inspection metadata the PTG
uses, but expresses the computation the DTD way (Section VI's "building
the entire DAG of execution in memory"): every READ/GEMM/REDUCE/SORT/
WRITE becomes an ``insert_task`` call with declared data accesses, and
the runtime discovers the dependencies "by matching input and output
data".

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
from repro.parsec.dtd import AccessMode, DtdContext, DtdResult, DtdRuntime
from repro.sim.cluster import Cluster
from repro.sim.trace import TaskCategory
from repro.tce.subroutine import Subroutine

__all__ = ["run_over_dtd", "build_dtd_skeleton"]


def _read_body(md: Metadata, L1: int, L2: int, which: str, key: str):
    def body(ctx: DtdContext):
        ctx.write(key, (yield from read_block(ctx, md, md.gemm(L1, L2), which)))

    return body


def _gemm_body(md: Metadata, L1: int, L2: int, a_key: str, b_key: str, out_key: str):
    def body(ctx: DtdContext):
        gemm = md.gemm(L1, L2)
        yield ctx.charge(ctx.machine.gemm(gemm.m, gemm.n, gemm.k))
        if ctx.real:
            a = ctx.data[a_key].reshape(gemm.k, gemm.m)
            b = ctx.data[b_key].reshape(gemm.k, gemm.n)
            ctx.write(out_key, a.T @ b)
        else:
            ctx.write(out_key, None)

    return body


def _reduce_body(md: Metadata, L1: int, x_key: str, y_key: str, out_key: str):
    def body(ctx: DtdContext):
        out = yield from reduce_pair(
            ctx, md.chain(L1), ctx.data[x_key], ctx.data[y_key]
        )
        ctx.write(out_key, out)

    return body


def _sort_body(md: Metadata, L1: int, in_key: str, out_key: str):
    def body(ctx: DtdContext):
        ctx.write(out_key, (yield from sort_fused(ctx, md.chain(L1), ctx.data[in_key])))

    return body


def _write_body(md: Metadata, L1: int, seg_index: int, sorted_key: str, region_key: str):
    def body(ctx: DtdContext):
        chain = md.chain(L1)
        seg = chain.write_segs[seg_index]
        yield ctx.charge(ctx.machine.axpy(seg.size))
        if ctx.real:
            piece = ctx.data[sorted_key][
                seg.lo - chain.target_lo : seg.hi - chain.target_lo
            ]
            md.target_array_of(chain).accumulate_range_direct(
                seg.lo, seg.hi, piece, tag=(md.level, "dtd", L1, seg_index)
            )

    return body


def build_dtd_skeleton(runtime: DtdRuntime, md: Metadata) -> None:
    """The skeleton program: insert every task of the computation."""

    for chain in md.chains:
        L1 = chain.chain_id
        partial_keys: list[str] = []
        for gemm in chain.gemms:
            L2 = gemm.position
            a_key = f"a({L1},{L2})"
            b_key = f"b({L1},{L2})"
            c_key = f"c({L1},{L2})"
            a_handle = runtime.data(a_key, gemm.a_hi - gemm.a_lo, gemm.a_owner)
            b_handle = runtime.data(b_key, gemm.b_hi - gemm.b_lo, gemm.b_owner)
            c_handle = runtime.data(c_key, chain.c_size, chain.node)
            for which, handle, owner, category in (
                ("a", a_handle, gemm.a_owner, TaskCategory.READ_A),
                ("b", b_handle, gemm.b_owner, TaskCategory.READ_B),
            ):
                runtime.insert_task(
                    f"READ_{which.upper()}({L1},{L2})",
                    _read_body(md, L1, L2, which, handle.key),
                    [(handle, AccessMode.WRITE)],
                    node=owner,
                    priority=md.priority(L1, md.variant.read_offset),
                    category=category,
                )
            runtime.insert_task(
                f"GEMM({L1},{L2})",
                _gemm_body(md, L1, L2, a_key, b_key, c_key),
                [
                    (a_handle, AccessMode.READ),
                    (b_handle, AccessMode.READ),
                    (c_handle, AccessMode.WRITE),
                ],
                node=chain.node,
                priority=md.priority(L1, GEMM_OFFSET),
                category=TaskCategory.GEMM,
            )
            partial_keys.append(c_key)

        # binary reduction over the partials (explicitly unrolled — DTD
        # has no symbolic tree, the skeleton enumerates it)
        step = 0
        frontier = partial_keys
        while len(frontier) > 1:
            next_frontier = []
            for i in range(0, len(frontier) - 1, 2):
                out_key = f"r({L1},{step})"
                out_handle = runtime.data(out_key, chain.c_size, chain.node)
                runtime.insert_task(
                    f"REDUCE({L1},{step})",
                    _reduce_body(md, L1, frontier[i], frontier[i + 1], out_key),
                    [
                        (runtime.data(frontier[i], chain.c_size, chain.node), AccessMode.READ),
                        (runtime.data(frontier[i + 1], chain.c_size, chain.node), AccessMode.READ),
                        (out_handle, AccessMode.WRITE),
                    ],
                    node=chain.node,
                    priority=md.priority(L1, 0),
                    category=TaskCategory.REDUCE,
                )
                next_frontier.append(out_key)
                step += 1
            if len(frontier) % 2 == 1:
                next_frontier.append(frontier[-1])
            frontier = next_frontier
        root_key = frontier[0]

        sorted_key = f"s({L1})"
        sorted_handle = runtime.data(sorted_key, chain.c_size, chain.node)
        runtime.insert_task(
            f"SORT({L1})",
            _sort_body(md, L1, root_key, sorted_key),
            [
                (runtime.data(root_key, chain.c_size, chain.node), AccessMode.READ),
                (sorted_handle, AccessMode.WRITE),
            ],
            node=chain.node,
            priority=md.priority(L1, 0),
            category=TaskCategory.SORT,
        )

        for seg in chain.write_segs:
            # RW access on the per-block region handle: DTD's dependence
            # matching serializes concurrent chains into the same block
            region = runtime.data(
                f"i2[{chain.target_lo}:{chain.target_hi}]@{seg.index}",
                seg.size,
                seg.node,
            )
            runtime.insert_task(
                f"WRITE_C({L1},{seg.index})",
                _write_body(md, L1, seg.index, sorted_key, region.key),
                [
                    (sorted_handle, AccessMode.READ),
                    (region, AccessMode.RW),
                ],
                node=seg.node,
                priority=md.priority(L1, 0),
                category=TaskCategory.WRITE,
            )


def run_over_dtd(cluster: Cluster, subroutine: Subroutine) -> DtdResult:
    """Inspect, build the DTD skeleton (v5 organization), execute."""
    md = inspect_subroutine(subroutine, cluster, V5)
    runtime = DtdRuntime(cluster)
    build_dtd_skeleton(runtime, md)
    return runtime.execute()
