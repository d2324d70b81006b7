"""Building the CCSD PTG for one variant.

This module is the Python analogue of the ``.jdf`` file: it declares
the READ_A/READ_B, DFILL, GEMM, REDUCE, SORT/SORT_I, and
WRITE_C/WRITE_C_I task classes with the guarded dataflow of the paper's
Figures 1-2 and 4-8, parameterized by a :class:`VariantSpec`.

Structure per chain (L1):

- ``READ_A(L1, L2)`` / ``READ_B(L1, L2)`` run on the GA owner node
  (``find_last_segment_owner``) and feed ``GEMM(L1, L2)``.
- GEMMs form serial mini-chains of the variant's segment height; each
  segment's first GEMM receives its C from ``DFILL(L1, S)`` (when the
  segment is longer than one GEMM) and the last forwards it — to the
  next-segment machinery (the binary ``REDUCE(L1, R)`` tree, Figure 4)
  or straight to the SORT stage when the chain has a single segment
  (Figure 1's ``(L2 == size_L2-1) ? C SORT(L1)``).
- The SORT stage is one fused ``SORT(L1)`` (Figure 5) or parallel
  ``SORT_I(L1, I)`` per active IF branch (Figure 6/7).
- WRITE tasks run on the nodes owning the target data, one instance per
  owner segment (Figure 8), accumulate under the node's write mutex,
  and receive only the slice relevant to their node.

Priorities follow Section IV-C exactly: ``max_L1 - L1 + offset*P`` with
offset +5 for reads, +1 for GEMMs, 0 elsewhere; or no priorities at all
for variant v2.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.metadata import Metadata
from repro.core.variants import GEMM_OFFSET, VariantSpec
from repro.parsec.ptg import PTG
from repro.parsec.taskclass import Dep, Flow, FlowMode, TaskClass, TaskContext
from repro.sim.trace import TaskCategory
from repro.tce.subroutine import sort_4

__all__ = ["build_ccsd_ptg", "read_block", "reduce_pair", "sort_fused"]


# ----------------------------------------------------------------------
# task bodies
# ----------------------------------------------------------------------
# READ, REDUCE and the fused SORT are the same computation under the
# PTG and under DTD (:mod:`repro.core.dtd_port`): generator helpers over
# what both contexts provide — ``ctx.charge``, ``ctx.machine``,
# ``ctx.real`` — returning the produced data.
def read_block(ctx, ref):
    """Local GA get of one GEMM operand block on its owner node."""
    lo, hi = ref.lo, ref.hi
    # the core time of the local copy is what lets priorities throttle
    # the transfer enqueue rate (the v2-vs-v4 contrast of Figures 10/11)
    yield ctx.charge(ctx.machine.local_get(8.0 * (hi - lo)))
    if not ctx.real:
        return None
    return ctx.md.arrays[ref.tensor.name].read_range_direct(lo, hi)


def reduce_pair(ctx, chain, x, y):
    """One step of the binary reduction over a chain's partial Cs."""
    yield ctx.charge(ctx.machine.axpy(chain.c_size))
    return x + y if ctx.real else None


def sort_fused(ctx, chain, c):
    """Figure 5: four guarded SORT_4 calls accumulating into one master.

    All data stays with one task (and therefore one OS thread), so the
    later passes run cache-warm — the locality the paper credits for
    v5's win.
    """
    machine = ctx.machine
    c_size = chain.c_size
    yield ctx.charge(machine.zero_fill(c_size))  # master := 0
    master = None
    tile = None
    if ctx.real:
        tile = c.reshape(chain.tile_shape)
        master = np.zeros(c_size)
    first = True
    for sort in chain.sort_writes:
        if not sort.guard:
            continue
        yield ctx.charge(machine.sort4(c_size, cache_warm=not first))
        yield ctx.charge(machine.axpy(c_size, cache_warm=True))
        if ctx.real:
            master += sort_4(tile, sort)
        first = False
    return master


def _read_run(which: str, out_flow: str):
    def run(ctx: TaskContext):
        ref = getattr(ctx.md.gemm(*ctx.params), which)
        ctx.outputs[out_flow] = yield from read_block(ctx, ref)

    return run


def _dfill_run(ctx: TaskContext):
    chain = ctx.md.specs[ctx.params[0]]
    yield ctx.charge(ctx.machine.zero_fill(chain.c_size))
    ctx.outputs["C"] = np.zeros((chain.m, chain.n)) if ctx.real else None


def _gemm_run(ctx: TaskContext):
    L1, L2 = ctx.params
    gemm = ctx.md.gemm(L1, L2)
    yield ctx.charge(
        ctx.machine.gemm(gemm.m, gemm.n, gemm.k, device=ctx.device)
    )
    if not ctx.real:
        ctx.outputs["C"] = None
        return
    a = ctx.inputs["A"].reshape(gemm.k, gemm.m)
    b = ctx.inputs["B"].reshape(gemm.k, gemm.n)
    c_in = ctx.inputs.get("C")
    # dgemm('T', 'N', ...): C += A^T B (C created fresh for 1-GEMM segments)
    ctx.outputs["C"] = a.T @ b if c_in is None else c_in + a.T @ b


def _reduce_run(ctx: TaskContext):
    chain = ctx.md.specs[ctx.params[0]]
    ctx.outputs["C"] = yield from reduce_pair(
        ctx, chain, ctx.inputs["X"], ctx.inputs["Y"]
    )


def _sort_fused_run(ctx: TaskContext):
    chain = ctx.md.specs[ctx.params[0]]
    ctx.outputs["S"] = yield from sort_fused(ctx, chain, ctx.inputs["C"])


def _sort_i_run(ctx: TaskContext):
    """Figure 6/7: one SORT_4 into a private matrix (cold data)."""
    L1, sort_index = ctx.params
    chain = ctx.md.specs[L1]
    yield ctx.charge(ctx.machine.sort4(chain.c_size, cache_warm=False))
    if ctx.real:
        tile = ctx.inputs["C"].reshape(chain.tile_shape)
        ctx.outputs["S"] = sort_4(tile, chain.sort_writes[sort_index])
    else:
        ctx.outputs["S"] = None


def _make_write_run(seg_index_of_params):
    """WRITE body: lock the node mutex once, accumulate all received
    pieces into the Global Array memory, unlock (Figures 5-8)."""

    def run(ctx: TaskContext):
        chain = ctx.md.chains[ctx.params[0]]
        seg = chain.write_segs[seg_index_of_params(ctx.params)]
        pieces = ctx.inputs["S"]
        if not isinstance(pieces, list):
            pieces = [pieces]
        tags = ctx.task.input_tag_list("S")
        mutex = ctx.node.mutex("write_c")
        yield from mutex.lock()
        try:
            for _ in pieces:
                yield ctx.charge(ctx.machine.axpy(seg.size))
            # Commit point: every irreversible accumulate publishes in
            # this one synchronous step. A crash either aborts a clean
            # body (before the commit) or lets a fully-published task
            # run to completion (after) — never halfway. The tags
            # (task key + producer key) give each contribution a stable
            # identity for ordered, exactly-once accumulation.
            ctx.commit()
            if ctx.real:
                # Tags are level-qualified: chain ids are renumbered
                # densely per barrier level, so without the level two
                # contributions from different levels of a multi-level
                # workload could alias one ordered-accumulation log slot.
                target = ctx.md.output_array()
                level = ctx.md.subroutine.level
                for piece, tag in zip(pieces, tags):
                    target.accumulate_range_direct(
                        seg.lo, seg.hi, piece, tag=(level, ctx.task.key, tag)
                    )
        finally:
            yield from mutex.unlock()

    return run


# ----------------------------------------------------------------------
# the PTG itself
# ----------------------------------------------------------------------
def build_ccsd_ptg(variant: VariantSpec, md: Metadata) -> PTG:
    """Construct the variant's PTG against inspection metadata ``md``.

    The metadata is needed only for static bounds (the maximum number
    of write segments any chain has); all per-instance facts stay
    symbolic, evaluated at instantiation — the PTG itself remains
    "Global Array agnostic", referring to data through the metadata IDs.
    Metadata inspected through a cache keeps the PTG's validated task
    template there, keyed by its structure token and the variant.
    """
    token = md.subroutine.structure_token
    ptg = PTG(
        f"ccsd-{variant.name}",
        key=None if token is None else (token, variant),
        cache=md.cache,
    )

    def prio(offset: int):
        if not variant.priorities:
            return None
        return lambda p, md: md.priority(p[0], offset)

    gemm_domain = lambda md: [
        (c.chain_id, g.position) for c in md.specs for g in c.gemms
    ]
    c_size = lambda p, md: md.specs[p[0]].c_size

    # ---------------- READ_A / READ_B -------------------------------
    for which, name, category in (
        ("a", "READ_A", TaskCategory.READ_A),
        ("b", "READ_B", TaskCategory.READ_B),
    ):
        flow_name = "A" if which == "a" else "B"
        ptg.add(
            TaskClass(
                name=name,
                params=("L1", "L2"),
                domain=gemm_domain,
                placement=(
                    (lambda p, md: md.chains[p[0]].a_owner[p[1]])
                    if which == "a"
                    else (lambda p, md: md.chains[p[0]].b_owner[p[1]])
                ),
                run=_read_run(which, flow_name),
                category=category,
                priority=prio(variant.read_offset),
                flows=[
                    Flow(
                        flow_name,
                        FlowMode.READ,
                        size_elems=_a_elems if which == "a" else _b_elems,
                        outputs=[Dep("GEMM", lambda p, md: p, flow_name)],
                    )
                ],
            )
        )

    # ---------------- DFILL ------------------------------------------
    ptg.add(
        TaskClass(
            name="DFILL",
            params=("L1", "S"),
            domain=lambda md: [
                (L1, s)
                for L1, c in enumerate(md.chains)
                if c.seg_len > 1
                # a segment is longer than one GEMM when it starts
                # before the chain's last
                for s, _ in enumerate(range(0, len(c.a_owner) - 1, c.seg_len))
            ],
            placement=lambda p, md: md.chains[p[0]].node,
            run=_dfill_run,
            category=TaskCategory.DFILL,
            priority=prio(0),
            flows=[
                Flow(
                    "C",
                    FlowMode.WRITE,
                    size_elems=c_size,
                    outputs=[
                        Dep(
                            "GEMM",
                            lambda p, md: (p[0], p[1] * md.chains[p[0]].seg_len),
                            "C",
                        )
                    ],
                )
            ],
        )
    )

    # ---------------- GEMM --------------------------------------------
    def reduce_feed_deps(consumer, side_of) -> list[Dep]:
        """C -> the X (left) or Y (right) input of the REDUCE step
        ``consumer(p, md)``; ``side_of`` names the side, or is None for
        producers that do not feed the tree."""
        return [
            Dep(
                "REDUCE",
                consumer,
                side,
                guard=lambda p, md, side=side: side_of(p, md) == side,
            )
            for side in ("X", "Y")
        ]

    def gemm_c_outputs() -> list[Dep]:
        deps = [
            # continue the serial mini-chain
            Dep("GEMM", lambda p, md: (p[0], p[1] + 1), "C", guard=_continues_segment),
        ]
        # feed the reduction tree
        deps.extend(reduce_feed_deps(_gemm_consumer, _reduce_side))
        deps.extend(_sort_stage_deps(variant, _gemm_is_root))
        return deps

    ptg.add(
        TaskClass(
            name="GEMM",
            params=("L1", "L2"),
            domain=gemm_domain,
            placement=lambda p, md: md.chains[p[0]].node,
            run=_gemm_run,
            category=TaskCategory.GEMM,
            priority=prio(GEMM_OFFSET),
            accelerated=True,  # GEMMs may run on accelerators when present
            flows=[
                Flow("A", FlowMode.READ, size_elems=_a_elems),
                Flow("B", FlowMode.READ, size_elems=_b_elems),
                Flow("C", FlowMode.RW, size_elems=c_size, outputs=gemm_c_outputs()),
            ],
        )
    )

    # ---------------- REDUCE -------------------------------------------
    def reduce_c_outputs() -> list[Dep]:
        deps = reduce_feed_deps(_step_consumer, _reduce_side_red)
        deps.extend(_sort_stage_deps(variant, _reduce_is_root))
        return deps

    ptg.add(
        TaskClass(
            name="REDUCE",
            params=("L1", "R"),
            domain=lambda md: [
                (L1, r)
                for L1, c in enumerate(md.chains)
                for r in range(md.trees[L1].n - 1)
            ],
            placement=lambda p, md: md.chains[p[0]].node,
            run=_reduce_run,
            category=TaskCategory.REDUCE,
            priority=prio(0),
            flows=[
                Flow("X", FlowMode.READ, c_size),
                Flow("Y", FlowMode.READ, c_size),
                Flow("C", FlowMode.WRITE, c_size, outputs=reduce_c_outputs()),
            ],
        )
    )

    # ---------------- SORT stage ---------------------------------------
    def write_target_deps(write_class: str, param_builder) -> list[Dep]:
        """S -> WRITE instances, one per GA owner segment (Figure 8).

        Each dep slices the sorted matrix down to its node's range and
        costs only those bytes on the wire.
        """
        deps = []
        for w in range(md.max_write_segs):

            def transform(data, p, md, w=w):
                segs = md.chains[p[0]].write_segs
                return data[segs[w].lo - segs[0].lo : segs[w].hi - segs[0].lo]

            deps.append(
                Dep(
                    write_class,
                    (lambda p, md, w=w: param_builder(p, w)),
                    "S",
                    guard=lambda p, md, w=w: w < len(md.chains[p[0]].write_segs),
                    transform=transform,
                    size_elems=lambda p, md, w=w: md.chains[p[0]].write_segs[w].size,
                )
            )
        return deps

    if variant.fused_sort:
        ptg.add(
            TaskClass(
                name="SORT",
                params=("L1",),
                domain=lambda md: [(c.chain_id,) for c in md.specs],
                placement=lambda p, md: md.chains[p[0]].node,
                run=_sort_fused_run,
                category=TaskCategory.SORT,
                priority=prio(0),
                flows=[
                    Flow("C", FlowMode.READ, c_size),
                    Flow(
                        "S",
                        FlowMode.WRITE,
                        c_size,
                        outputs=write_target_deps("WRITE_C", lambda p, w: (p[0], w)),
                    ),
                ],
            )
        )
    else:
        write_class = "WRITE_C" if variant.single_write else "WRITE_C_I"
        param_builder = (
            (lambda p, w: (p[0], w))
            if variant.single_write
            else (lambda p, w: (p[0], p[1], w))
        )
        ptg.add(
            TaskClass(
                name="SORT_I",
                params=("L1", "I"),
                domain=lambda md: [
                    (c.chain_id, s.sort_index)
                    for c in md.specs
                    for s in c.sort_writes
                    if s.guard
                ],
                placement=lambda p, md: md.chains[p[0]].node,
                run=_sort_i_run,
                category=TaskCategory.SORT,
                priority=prio(0),
                flows=[
                    Flow("C", FlowMode.READ, c_size),
                    Flow(
                        "S",
                        FlowMode.WRITE,
                        c_size,
                        outputs=write_target_deps(write_class, param_builder),
                    ),
                ],
            )
        )

    # ---------------- WRITE stage --------------------------------------
    seg_size = lambda p, md: md.chains[p[0]].write_segs[p[-1]].size
    if variant.single_write:
        ptg.add(
            TaskClass(
                name="WRITE_C",
                params=("L1", "W"),
                domain=lambda md: [
                    (L1, w)
                    for L1, c in enumerate(md.chains)
                    for w, _ in enumerate(c.write_segs)
                ],
                placement=lambda p, md: md.chains[p[0]].write_segs[p[1]].node,
                run=_make_write_run(lambda p: p[1]),
                category=TaskCategory.WRITE,
                priority=prio(0),
                flows=[Flow("S", FlowMode.READ, seg_size)],
            )
        )
    else:
        ptg.add(
            TaskClass(
                name="WRITE_C_I",
                params=("L1", "I", "W"),
                domain=lambda md: [
                    (c.chain_id, s.sort_index, w)
                    for c, meta in zip(md.specs, md.chains)
                    for s in c.sort_writes
                    if s.guard
                    for w, _ in enumerate(meta.write_segs)
                ],
                placement=lambda p, md: md.chains[p[0]].write_segs[p[2]].node,
                run=_make_write_run(lambda p: p[2]),
                category=TaskCategory.WRITE,
                priority=prio(0),
                flows=[Flow("S", FlowMode.READ, seg_size)],
            )
        )

    return ptg


# ----------------------------------------------------------------------
# size and guard helpers
# ----------------------------------------------------------------------
# GEMM (L1, L2) sits in segment ``L2 // seg_len`` of its chain, and a
# segment ends at a multiple of ``seg_len`` or at the chain's last GEMM:
# arithmetic on the chain's record, not a lookup or a call per row.
def _a_elems(p, md) -> int:
    a = md.specs[p[0]].gemms[p[1]].a
    return a.hi - a.lo


def _b_elems(p, md) -> int:
    b = md.specs[p[0]].gemms[p[1]].b
    return b.hi - b.lo


def _continues_segment(p, md) -> bool:
    """GEMM (L1, L2) is not the last of its segment."""
    chain = md.chains[p[0]]
    after = p[1] + 1
    return after % chain.seg_len > 0 and after < len(chain.a_owner)


def _gemm_is_root(p, md) -> bool:
    """GEMM (L1, L2) ends its chain's only segment."""
    return md.trees[p[0]].n == 1 and p[1] == md.chains[p[0]].seg_len - 1


def _reduce_side(p, md) -> Optional[str]:
    """Which REDUCE input ('X' left / 'Y' right) a GEMM feeds: only the
    tail of a segment does, and only in a chain with a tree to feed."""
    tree = md.trees[p[0]]
    if tree.n == 1:
        return None
    chain = md.chains[p[0]]
    after = p[1] + 1
    if after % chain.seg_len > 0 and after < len(chain.a_owner):
        return None
    segment = p[1] // chain.seg_len
    return "X" if tree.left[tree.consumer[segment]] == segment else "Y"


def _gemm_consumer(p, md) -> tuple:
    """The REDUCE step a segment's last GEMM feeds."""
    return (p[0], md.trees[p[0]].consumer[p[1] // md.chains[p[0]].seg_len])


def _reduce_side_red(p, md) -> Optional[str]:
    """Which input a REDUCE step feeds in its consumer (None at the root)."""
    tree = md.trees[p[0]]
    if p[1] == tree.n - 2:
        return None
    source = tree.n + p[1]
    return "X" if tree.left[tree.consumer[source]] == source else "Y"


def _step_consumer(p, md) -> tuple:
    """The REDUCE step a non-root step feeds."""
    tree = md.trees[p[0]]
    return (p[0], tree.consumer[tree.n + p[1]])


def _reduce_is_root(p, md) -> bool:
    """REDUCE (L1, R) is the last step of its chain's tree."""
    return p[1] == md.trees[p[0]].n - 2


def _sort_stage_deps(variant: VariantSpec, is_root) -> list[Dep]:
    """C -> SORT stage deps, guarded on ``is_root(p, md)``: being the
    chain's root producer."""
    if variant.fused_sort:
        return [
            Dep("SORT", lambda p, md: (p[0],), "C", guard=is_root),
        ]
    return [
        Dep(
            "SORT_I",
            (lambda p, md, i=i: (p[0], i)),
            "C",
            guard=(
                lambda p, md, i=i: md.specs[p[0]].sort_writes[i].guard
                and is_root(p, md)
            ),
        )
        for i in range(4)
    ]
