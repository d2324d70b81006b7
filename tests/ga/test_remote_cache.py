"""The per-node remote-block cache: epochs, invalidation, equality.

The cache (repro.ga.cache) must never serve stale bytes: every array
mutation logs a write epoch, and a cached block whose epoch predates an
overlapping write is evicted on lookup. These tests pin the
invalidation rules, the LRU bound, the conservative behavior past log
compaction, and — end to end — that a cached run stays bitwise-equal
to an uncached one under interleaved fetch/accumulate traffic.
"""

import numpy as np
import pytest

from repro.ga.array import _WRITE_LOG_MAX
from repro.ga.cache import MAX_BLOCKS, RemoteBlockCache, RemoteCachePolicy
from repro.ga.runtime import GlobalArrays
from repro.sim.cluster import Cluster, ClusterConfig, DataMode
from repro.sim.cost import MachineModel


def make_cluster(n_nodes=4, data_mode=DataMode.REAL):
    return Cluster(
        ClusterConfig(
            n_nodes=n_nodes,
            cores_per_node=2,
            machine=MachineModel(),
            data_mode=data_mode,
        )
    )


def run_op(cluster, op):
    result = {}

    def driver():
        result["value"] = yield from op

    cluster.engine.process(driver())
    cluster.run()
    return result


def make_array(tracked=True, total=100):
    """A standalone tracked array (no cluster needed for unit tests)."""
    ga = GlobalArrays(
        make_cluster(), remote_cache=RemoteCachePolicy() if tracked else None
    )
    return ga.create("t", total)


class TestWriteEpochs:
    def test_untracked_array_logs_nothing(self):
        array = make_array(tracked=False)
        array.record_write(0, 10)
        assert array.write_epoch == 0
        # epoch 0 with an empty log: nothing was ever modified
        assert not array.modified_since(0, 0, 100)

    def test_epoch_advances_per_write(self):
        array = make_array()
        assert array.write_epoch == 0
        array.record_write(0, 10)
        array.record_write(50, 60)
        assert array.write_epoch == 2

    def test_modified_since_sees_only_later_overlaps(self):
        array = make_array()
        array.record_write(0, 10)
        epoch = array.write_epoch
        assert not array.modified_since(epoch, 0, 10)  # write predates epoch
        array.record_write(5, 15)
        assert array.modified_since(epoch, 0, 10)  # overlap
        assert array.modified_since(epoch, 14, 20)  # touches [5,15)
        assert not array.modified_since(epoch, 15, 30)  # disjoint
        assert not array.modified_since(epoch, 0, 5)  # disjoint

    def test_compacted_history_counts_as_modified(self):
        array = make_array()
        epoch = array.write_epoch
        for _ in range(_WRITE_LOG_MAX + 1):
            array.record_write(0, 1)
        # the oldest half of the log was dropped; an epoch that predates
        # the surviving history must be treated as modified even for a
        # range no logged write overlaps
        assert array.modified_since(epoch, 99, 100)

    def test_mutating_ops_record_writes(self):
        cluster = make_cluster()
        ga = GlobalArrays(cluster, remote_cache=RemoteCachePolicy())
        array = ga.create("t", 100)
        before = array.write_epoch
        array.scatter(np.zeros(100))
        assert array.write_epoch == before + 1
        array.zero()
        assert array.write_epoch == before + 2
        run_op(cluster, ga.accumulate(0, array, 30, 40, np.ones(10)))
        assert array.write_epoch > before + 2


class TestRemoteBlockCache:
    @pytest.mark.parametrize("max_blocks", [-1, 1.5, None])
    def test_policy_rejects_non_count_capacity(self, max_blocks):
        # The capacity is the constant MAX_BLOCKS: no value is taken.
        with pytest.raises(TypeError, match="max_blocks"):
            RemoteCachePolicy(max_blocks=max_blocks)
        with pytest.raises(TypeError):
            RemoteBlockCache(RemoteCachePolicy())
        assert type(MAX_BLOCKS) is int and MAX_BLOCKS > 0

    def test_overlapping_write_invalidates(self):
        array = make_array()
        cache = RemoteBlockCache()
        cache.insert(array, 25, 50, array.write_epoch, np.ones(25))
        array.record_write(40, 60)
        hit, _ = cache.lookup(array, 25, 50)
        assert not hit
        assert cache.invalidations == 1
        assert len(cache) == 0

    def test_disjoint_write_does_not_invalidate(self):
        array = make_array()
        cache = RemoteBlockCache()
        block = np.ones(25)
        cache.insert(array, 25, 50, array.write_epoch, block)
        array.record_write(50, 60)
        array.record_write(0, 25)
        hit, data = cache.lookup(array, 25, 50)
        assert hit
        assert data is block
        assert cache.invalidations == 0

    def test_hit_refreshes_epoch(self):
        array = make_array()
        cache = RemoteBlockCache()
        cache.insert(array, 0, 10, array.write_epoch, np.ones(10))
        # push enough disjoint writes to compact away the insert epoch;
        # periodic hits keep revalidating, so the entry stays live
        for _ in range(_WRITE_LOG_MAX):
            array.record_write(90, 100)
            hit, _ = cache.lookup(array, 0, 10)
            assert hit

    def test_lru_bound(self):
        array = make_array()
        cache = RemoteBlockCache()
        for lo in range(MAX_BLOCKS):
            cache.insert(array, lo, lo + 1, 0, None)
        cache.lookup(array, 0, 1)  # touch -> most recently used
        cache.insert(array, MAX_BLOCKS, MAX_BLOCKS + 1, 0, None)  # evicts (1, 2)
        assert len(cache) == MAX_BLOCKS
        assert cache.lookup(array, 0, 1)[0]
        assert not cache.lookup(array, 1, 2)[0]
        assert cache.lookup(array, MAX_BLOCKS, MAX_BLOCKS + 1)[0]


class TestCachedFetch:
    def test_repeat_fetch_hits_and_saves_wire_messages(self):
        cluster = make_cluster()
        ga = GlobalArrays(cluster, remote_cache=RemoteCachePolicy())
        array = ga.create("t", 100)
        array.scatter(np.arange(100, dtype=float))
        run_op(cluster, ga.fetch(3, array, 30, 40))
        wire_after_first = cluster.network.remote_messages
        result = run_op(cluster, ga.fetch(3, array, 30, 40))
        np.testing.assert_array_equal(result["value"], np.arange(30, 40, dtype=float))
        assert ga.cache_hits == 1
        assert cluster.network.remote_messages == wire_after_first

    def test_accumulate_between_fetches_invalidates(self):
        cluster = make_cluster()
        ga = GlobalArrays(cluster, remote_cache=RemoteCachePolicy())
        array = ga.create("t", 100)
        array.scatter(np.zeros(100))
        run_op(cluster, ga.fetch(3, array, 30, 40))
        run_op(cluster, ga.accumulate(0, array, 35, 45, np.ones(10)))
        result = run_op(cluster, ga.fetch(3, array, 30, 40))
        expected = np.zeros(10)
        expected[5:] = 1.0
        np.testing.assert_array_equal(result["value"], expected)
        assert ga.cache_hits == 0

    def test_local_only_fetch_skips_cache(self):
        cluster = make_cluster()
        ga = GlobalArrays(cluster, remote_cache=RemoteCachePolicy())
        array = ga.create("t", 100)
        array.scatter(np.zeros(100))
        # [0, 25) lives entirely on node 0: nothing to cache
        run_op(cluster, ga.fetch(0, array, 0, 25))
        run_op(cluster, ga.fetch(0, array, 0, 25))
        assert ga.cache_hits == 0
        assert ga.cache_misses == 0

    def test_hit_cannot_be_scribbled_on(self):
        cluster = make_cluster()
        ga = GlobalArrays(cluster, remote_cache=RemoteCachePolicy())
        array = ga.create("t", 100)
        array.scatter(np.arange(100, dtype=float))
        run_op(cluster, ga.fetch(3, array, 30, 40))
        first = run_op(cluster, ga.fetch(3, array, 30, 40))["value"]
        with pytest.raises(ValueError, match="read-only"):
            first[:] = -1.0  # the hit shares the cached snapshot
        second = run_op(cluster, ga.fetch(3, array, 30, 40))["value"]
        np.testing.assert_array_equal(second, np.arange(30, 40, dtype=float))

    def test_synth_mode_hits_without_data(self):
        cluster = make_cluster(data_mode=DataMode.SYNTH)
        ga = GlobalArrays(cluster, remote_cache=RemoteCachePolicy())
        array = ga.create("t", 100)
        run_op(cluster, ga.fetch(3, array, 30, 40))
        result = run_op(cluster, ga.fetch(3, array, 30, 40))
        assert result["value"] is None
        assert ga.cache_hits == 1


class TestBitwiseEquality:
    def test_interleaved_traffic_bitwise_equal_with_cache(self):
        """A deterministic fetch/accumulate storm produces bit-identical
        arrays with the cache on and off (the chaos-harness guarantee at
        unit scale: timing moves, arithmetic does not)."""

        # the op sequences are fixed up front: the knob may reorder the
        # clients in virtual time, and draws taken mid-simulation would
        # change with that order and corrupt the comparison
        plans = {
            node: [
                (int(lo), int(lo + span))
                for lo, span in zip(
                    np.random.default_rng(100 + node).integers(0, 100, 20),
                    np.random.default_rng(200 + node).integers(1, 20, 20),
                )
            ]
            for node in range(4)
        }

        def storm(cache):
            cluster = make_cluster()
            ga = GlobalArrays(
                cluster, remote_cache=RemoteCachePolicy() if cache else None
            )
            array = ga.create("t", 120)
            array.scatter(np.zeros(120))
            array.enable_ordered_accumulation()

            def client(node):
                for step, (lo, hi) in enumerate(plans[node]):
                    if step % 3 == 2:
                        yield from ga.accumulate(
                            node,
                            array,
                            lo,
                            hi,
                            np.full(hi - lo, 0.125 * (node + 1)),
                            tag=(node, step),
                        )
                    else:
                        yield from ga.fetch(node, array, lo, hi)

            for node in range(cluster.n_nodes):
                cluster.engine.process(client(node))
            cluster.run()
            return array.gather(), cluster.network.remote_messages

        baseline, base_msgs = storm(cache=False)
        cached, cached_msgs = storm(cache=True)
        np.testing.assert_array_equal(baseline, cached)
        assert cached_msgs <= base_msgs
