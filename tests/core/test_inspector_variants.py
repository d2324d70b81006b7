"""Tests for variant specs, the inspection phase, and its metadata."""

import pytest

from repro.core.api import RunConfig, build
from repro.core.inspector import _build_reduce_tree, _build_segments, inspect_subroutine
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


class TestSegments:
    def test_whole_chain(self):
        segs = _build_segments(7, None)
        assert len(segs) == 1 and segs[0].length == 7

    def test_height_one(self):
        segs = _build_segments(5, 1)
        assert [s.length for s in segs] == [1] * 5
        assert [s.start for s in segs] == [0, 1, 2, 3, 4]

    def test_intermediate_height_with_ragged_tail(self):
        segs = _build_segments(7, 3)
        assert [(s.start, s.length) for s in segs] == [(0, 3), (3, 3), (6, 1)]

    def test_last_position(self):
        segs = _build_segments(7, 3)
        assert [s.last_position for s in segs] == [2, 5, 6]


class TestReduceTree:
    def test_no_tree_for_single_segment(self):
        reduces, consumer = _build_reduce_tree(1)
        assert reduces == [] and consumer == {}

    def test_two_segments_single_root(self):
        reduces, consumer = _build_reduce_tree(2)
        assert len(reduces) == 1
        assert reduces[0].is_root
        assert consumer == {("seg", 0): 0, ("seg", 1): 0}

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 16])
    def test_tree_shape_invariants(self, n):
        reduces, consumer = _build_reduce_tree(n)
        # a binary reduction of n inputs needs exactly n-1 combines
        assert len(reduces) == n - 1
        roots = [r for r in reduces if r.is_root]
        assert len(roots) == 1
        # every segment is consumed exactly once
        for i in range(n):
            assert ("seg", i) in consumer
        # every non-root reduce output is consumed exactly once
        non_roots = [r.step for r in reduces if not r.is_root]
        for step in non_roots:
            assert ("red", step) in consumer
        # all sources referenced by steps are distinct
        sources = [r.left for r in reduces] + [r.right for r in reduces]
        assert len(sources) == len(set(sources))

    def test_tree_depth_is_logarithmic(self):
        reduces, _ = _build_reduce_tree(16)
        root = [r for r in reduces if r.is_root][0]
        # 16 leaves -> root is the 15th step of a 4-level tree
        assert root.step == 14


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
            assert chain.target_hi - chain.target_lo == spec.c_size
            assert 1 <= len(spec.active_sorts) <= 4
            for sort in spec.active_sorts:
                assert (sort.target.lo, sort.target.hi) == (
                    chain.target_lo,
                    chain.target_hi,
                )

    def test_write_segments_tile_the_target(self):
        cluster, workload = make_workload()
        md = inspect_subroutine(workload.subroutine, cluster, V5)
        for chain in md.chains:
            cursor = chain.target_lo
            for seg in chain.write_segs:
                assert seg.lo == cursor
                cursor = seg.hi
            assert cursor == chain.target_hi

    def test_v1_has_single_segment_per_chain(self):
        cluster, workload = make_workload()
        md = inspect_subroutine(workload.subroutine, cluster, V1)
        assert all(len(c.segments) == 1 and not c.reduces for c in md.chains)

    def test_v5_has_singleton_segments_and_tree(self):
        cluster, workload = make_workload()
        md = inspect_subroutine(workload.subroutine, cluster, V5)
        for spec, chain in zip(workload.subroutine.chains, md.chains):
            assert len(chain.segments) == spec.length
            if spec.length > 1:
                assert len(chain.reduces) == spec.length - 1

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
        assert not chain.reduces and chain.segments[0].last_position == spec.length - 1
        md_v5 = inspect_subroutine(workload.subroutine, cluster, V5)
        chain = md_v5.chains[0]
        if spec.length > 1:
            roots = [r.is_root for r in chain.reduces]
            assert roots == [False] * (spec.length - 2) + [True]
            assert chain.reduces[-1].step == spec.length - 2

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
        assert n_reached > 10 * len(chains)
