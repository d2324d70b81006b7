"""Tests for variant specs, the inspection phase, and its metadata."""

import pytest

from repro.core.api import RunConfig, build
from repro.core.inspector import inspect_subroutine
from repro.core.metadata import ChainMeta, ReduceTree, reduce_tree
from repro.core.variants import (
    GEMM_OFFSET,
    PAPER_VARIANTS,
    V1,
    V2,
    V3,
    V4,
    V5,
    VariantSpec,
    variant_by_name,
)
from repro.util.errors import ConfigurationError


def make_workload(n_nodes=4):
    workload = build("t2_7:tiny", RunConfig(n_nodes=n_nodes, cores_per_node=2))
    return workload.cluster, workload


class TestVariantSpecs:
    def test_paper_table(self):
        assert V1.segment_height is None and not V1.fused_sort and not V1.single_write and V1.priorities
        assert V2.segment_height == 1 and not V2.fused_sort and V2.single_write and not V2.priorities
        assert V3.segment_height == 1 and not V3.fused_sort and not V3.single_write and V3.priorities
        assert V4.segment_height == 1 and not V4.fused_sort and V4.single_write and V4.priorities
        assert V5.segment_height == 1 and V5.fused_sort and V5.single_write and V5.priorities

    def test_lookup(self):
        assert variant_by_name("v3") is V3
        with pytest.raises(ConfigurationError):
            variant_by_name("v9")
        assert set(PAPER_VARIANTS) == {"v1", "v2", "v3", "v4", "v5"}

    def test_fused_sort_requires_single_write(self):
        with pytest.raises(ConfigurationError):
            VariantSpec("bad", 1, fused_sort=True, single_write=False, priorities=True)

    def test_invalid_segment_height(self):
        with pytest.raises(ConfigurationError):
            VariantSpec("bad", 0, False, True, True)

    def test_gemm_offset_is_the_papers_plus_one(self):
        # "+5 for reads, +1 for GEMMs" (Section IV-C): the read offset
        # is an ablation axis, the GEMM offset a constant
        assert GEMM_OFFSET == 1 and V4.read_offset == 5
        with pytest.raises(TypeError, match="gemm_offset"):
            V4.with_overrides(gemm_offset=2)

    def test_overrides(self):
        swept = V4.with_overrides(segment_height=4, name="v4h4")
        assert swept.segment_height == 4 and swept.single_write

    def test_describe(self):
        assert "serial chain" in V1.describe()
        assert "no priorities" in V2.describe()
        assert "one SORT" in V5.describe()


def chain_of(n_gemms, height):
    """A record of an ``n_gemms`` chain at chain ``height``, with the
    segment length the inspector gives it."""
    seg_len = n_gemms if height is None else min(height, n_gemms)
    return ChainMeta(0, (0,) * n_gemms, (0,) * n_gemms, seg_len, ())


def segment(chain, s):
    """The GEMM positions (L2) of segment ``s``: ``seg_len`` from
    ``s * seg_len``, the last one cut at the chain's end."""
    start = s * chain.seg_len
    return range(start, min(start + chain.seg_len, len(chain.a_owner)))


def segments_of(chain):
    """Each segment's (start, length)."""
    spans = [segment(chain, s) for s in range(chain.n_segments)]
    return [(span.start, len(span)) for span in spans]


def tagged_segments(n_gemms, height):
    """The (start, length) list the inspector stored before segments
    were arithmetic."""
    if height is None:
        return [(0, n_gemms)]
    segments, start = [], 0
    while start < n_gemms:
        length = min(height, n_gemms - start)
        segments.append((start, length))
        start += length
    return segments


def tagged_tree(n_segments):
    """The reduction tree the inspector stored before it was arithmetic:
    steps of ``('seg'|'red', i)`` sources paired along a frontier, an
    odd one out carried, and the map of each source to its consumer."""
    steps, consumer = [], {}
    frontier = [("seg", i) for i in range(n_segments)]
    while len(frontier) > 1:
        next_frontier = []
        for i in range(0, len(frontier) - 1, 2):
            left, right = frontier[i], frontier[i + 1]
            consumer[left] = consumer[right] = len(steps)
            next_frontier.append(("red", len(steps)))
            steps.append((left, right))
        if len(frontier) % 2 == 1:
            next_frontier.append(frontier[-1])
        frontier = next_frontier
    return steps, consumer


class TestSegments:
    def test_whole_chain(self):
        assert segments_of(chain_of(7, None)) == [(0, 7)]

    def test_height_one(self):
        assert segments_of(chain_of(5, 1)) == [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)]

    def test_intermediate_height_with_ragged_tail(self):
        assert segments_of(chain_of(7, 3)) == [(0, 3), (3, 3), (6, 1)]

    def test_last_position(self):
        chain = chain_of(7, 3)
        assert [segment(chain, s)[-1] for s in range(chain.n_segments)] == [2, 5, 6]


class TestReduceTree:
    def test_no_tree_for_single_segment(self):
        assert reduce_tree(1) == ReduceTree(1, (), (), ())

    def test_two_segments_single_root(self):
        tree = reduce_tree(2)
        assert (tree.left, tree.right) == ((0,), (1,))
        # both segments feed step 0; the root, source 2, feeds nothing
        assert tree.consumer == (0, 0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 16])
    def test_tree_shape_invariants(self, n):
        tree = reduce_tree(n)
        # a binary reduction of n inputs needs exactly n-1 combines
        assert len(tree.left) == len(tree.right) == n - 1
        # every source but the root (2n - 2) is read exactly once, by
        # the step its consumer names, which comes after it
        assert sorted(tree.left + tree.right) == list(range(2 * n - 2))
        for step, (x, y) in enumerate(zip(tree.left, tree.right)):
            assert tree.consumer[x] == tree.consumer[y] == step
            assert max(x, y) < n + step
        assert reduce_tree(n) is tree  # one tree per segment count

    def test_tree_depth_is_logarithmic(self):
        tree = reduce_tree(16)
        depth = [0] * 16
        for x, y in zip(tree.left, tree.right):
            depth.append(1 + max(depth[x], depth[y]))
        # 16 leaves -> the root, the 15th step, tops a 4-level tree
        assert len(depth) - 1 == 2 * 16 - 2 and depth[-1] == 4

    def test_arithmetic_matches_the_records_it_replaced(self):
        """Source ``('seg', i)`` is ``i`` and ``('red', s)`` is ``n + s``:
        the tree pairs, consumes and roots as the stored one did, and
        the segments start and end where the stored ones did."""
        for n in range(1, 65):
            steps, consumer = tagged_tree(n)
            number = {("seg", i): i for i in range(n)}
            number.update({("red", s): n + s for s in range(len(steps))})
            tree = reduce_tree(n)
            assert tree.n == n
            assert tree.left == tuple(number[left] for left, _ in steps)
            assert tree.right == tuple(number[right] for _, right in steps)
            assert tree.consumer == tuple(
                consumer[source] for source in sorted(consumer, key=number.get)
            )
            # the root is the last step, or the one segment
            root = ("red", len(steps) - 1) if steps else ("seg", 0)
            assert root not in consumer and number[root] == 2 * n - 2
        for n_gemms in range(1, 41):
            for height in (None, *range(1, 11)):
                chain = chain_of(n_gemms, height)
                assert segments_of(chain) == tagged_segments(n_gemms, height)


class TestInspection:
    def test_chain_placement_is_round_robin(self):
        cluster, workload = make_workload(n_nodes=4)
        md = inspect_subroutine(workload.subroutine, cluster, V5)
        for L1, chain in enumerate(md.chains):
            assert chain.node == L1 % 4

    def test_read_owners_match_distribution(self):
        cluster, workload = make_workload()
        md = inspect_subroutine(workload.subroutine, cluster, V5)
        for spec, chain in zip(workload.subroutine.chains, md.chains):
            assert len(chain.a_owner) == len(chain.b_owner) == spec.length
            for gemm, a_owner, b_owner in zip(spec.gemms, chain.a_owner, chain.b_owner):
                assert a_owner == workload.va.array.distribution.last_segment_owner(
                    gemm.a.lo, gemm.a.hi
                )
                assert b_owner == workload.tb.array.distribution.last_segment_owner(
                    gemm.b.lo, gemm.b.hi
                )

    def test_active_sorts_share_one_target(self):
        cluster, workload = make_workload()
        md = inspect_subroutine(workload.subroutine, cluster, V4)
        for spec, chain in zip(workload.subroutine.chains, md.chains):
            target = (chain.write_segs[0].lo, chain.write_segs[-1].hi)
            assert target[1] - target[0] == spec.c_size
            assert 1 <= len(spec.active_sorts) <= 4
            for sort in spec.active_sorts:
                assert (sort.target.lo, sort.target.hi) == target

    def test_write_segments_tile_the_target(self):
        cluster, workload = make_workload()
        md = inspect_subroutine(workload.subroutine, cluster, V5)
        output = workload.subroutine.output.name
        distribution = workload.cluster.ga.lookup(output).distribution
        for spec, chain in zip(workload.subroutine.chains, md.chains):
            (target,) = {sort.target for sort in spec.active_sorts}
            cursor = target.lo
            for seg in chain.write_segs:
                assert seg.lo == cursor and seg.hi > seg.lo
                assert distribution.owner_of(seg.lo) == seg.node
                cursor = seg.hi
            assert cursor == target.hi

    def test_v1_has_single_segment_per_chain(self):
        cluster, workload = make_workload()
        md = inspect_subroutine(workload.subroutine, cluster, V1)
        for spec, chain in zip(workload.subroutine.chains, md.chains):
            assert chain.seg_len == spec.length and chain.n_segments == 1
        assert all(tree.n == 1 and tree.left == () for tree in md.trees)

    def test_v5_has_singleton_segments_and_tree(self):
        cluster, workload = make_workload()
        md = inspect_subroutine(workload.subroutine, cluster, V5)
        for spec, chain, tree in zip(workload.subroutine.chains, md.chains, md.trees):
            assert chain.seg_len == 1 and chain.n_segments == spec.length
            assert tree is reduce_tree(spec.length)
            assert len(tree.left) == spec.length - 1

    def test_priority_expression(self):
        cluster, workload = make_workload(n_nodes=4)
        md = inspect_subroutine(workload.subroutine, cluster, V4)
        # max_L1 - L1 + offset*P
        assert md.priority(0, 5) == md.max_L1 + 5 * 4
        assert md.priority(3, 1) == md.max_L1 - 3 + 4
        assert md.priority(0, 5) > md.priority(1, 5)

    def test_v2_priorities_all_zero(self):
        cluster, workload = make_workload()
        md = inspect_subroutine(workload.subroutine, cluster, V2)
        assert md.priority(0, 5) == 0.0
        assert md.priority(7, 1) == 0.0

    def test_root_producer(self):
        """The chain's root — what its SORT stage reads — is its one
        segment's last GEMM, or the last step of its reduction tree."""
        cluster, workload = make_workload()
        spec = workload.subroutine.chains[0]
        md_v1 = inspect_subroutine(workload.subroutine, cluster, V1)
        chain = md_v1.chains[0]
        assert md_v1.trees[0].n == 1
        assert segment(chain, 0)[-1] == chain.seg_len - 1 == spec.length - 1
        md_v5 = inspect_subroutine(workload.subroutine, cluster, V5)
        tree = md_v5.trees[0]
        if spec.length > 1:
            # the last step reads two sources and feeds none: the root
            root = 2 * tree.n - 2
            assert len(tree.consumer) == root and len(tree.left) == spec.length - 1
            assert tree.consumer[tree.left[-1]] == tree.consumer[tree.right[-1]]
            assert tree.consumer[tree.left[-1]] == spec.length - 2

    def test_gemm_is_the_ir_op(self):
        """The metadata indexes the chain IR, it does not copy it."""
        cluster, workload = make_workload()
        subroutine = workload.subroutine
        md = inspect_subroutine(subroutine, cluster, V5)
        assert md.specs is subroutine.chains
        for L1, spec in enumerate(subroutine.chains):
            for L2 in range(spec.length):
                assert md.gemm(L1, L2) is subroutine.chains[L1].gemms[L2]

    def test_memoised_chains_reach_no_ir(self):
        """A memoised ``ChainMeta`` list is weighed on its own, so it may
        not keep a structure's IR alive: nothing it reaches is a
        ``ChainSpec``, ``GemmOp``, ``SortWrite`` or ``BlockRef``."""
        import gc

        from repro.core.inspector import InspectionCache
        from repro.tce.subroutine import BlockRef, ChainSpec, GemmOp, SortWrite

        cluster, workload = make_workload()
        cache = InspectionCache()
        inspect_subroutine(workload.subroutine, cluster, V5, cache)
        (chains,) = [product for product, _ in cache._entries.values()]
        assert isinstance(chains, list) and chains
        seen, stack, n_reached = set(), [chains], 0
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, type):
                continue
            seen.add(id(obj))
            n_reached += 1
            assert not isinstance(obj, (ChainSpec, GemmOp, SortWrite, BlockRef)), obj
            stack.extend(gc.get_referents(obj))
        # the walk went through every record, down to its write segments
        assert all(
            id(chain) in seen and all(id(seg) in seen for seg in chain.write_segs)
            for chain in chains
        )
        assert n_reached > 5 * len(chains)
