"""Tests for NXTVAL work stealing, barriers, and the hash-block wrappers."""

import numpy as np
import pytest

from repro.ga.hash_block import add_hash_block, get_hash_block
from repro.ga.nxtval import NxtvalServer
from repro.ga.runtime import GlobalArrays
from repro.ga.sync import Barrier
from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.trace import TaskCategory
from repro.util.errors import SimulationError


def make_cluster(n_nodes=4):
    return Cluster(ClusterConfig(n_nodes=n_nodes, cores_per_node=2))


class TestNxtval:
    def test_tickets_are_unique_and_dense(self):
        cluster = make_cluster()
        ga = GlobalArrays(cluster)
        nxtval = NxtvalServer(ga)
        tickets = []

        def rank(node_id):
            for _ in range(5):
                ticket = yield from nxtval.next(node_id)
                tickets.append(ticket)

        for node_id in range(4):
            cluster.engine.process(rank(node_id))
        cluster.run()
        assert sorted(tickets) == list(range(20))
        assert nxtval.total_requests == 20

    def test_contention_grows_with_rank_count(self):
        def drain_time(n_ranks):
            cluster = make_cluster(n_nodes=8)
            ga = GlobalArrays(cluster)
            nxtval = NxtvalServer(ga)

            def rank(node_id):
                for _ in range(10):
                    yield from nxtval.next(node_id)

            for i in range(n_ranks):
                cluster.engine.process(rank(i % 8))
            return cluster.run()

        # the single shared counter is a serial bottleneck
        assert drain_time(16) > drain_time(2)


class TestBarrier:
    def test_all_parties_released_together(self):
        cluster = make_cluster()
        barrier = Barrier(cluster.engine, parties=3)
        release_times = []

        def rank(delay):
            yield cluster.engine.timeout(delay)
            yield from barrier.arrive()
            release_times.append(cluster.engine.now)

        for delay in (1.0, 5.0, 3.0):
            cluster.engine.process(rank(delay))
        cluster.run()
        assert release_times == [5.0, 5.0, 5.0]

    def test_cyclic_reuse(self):
        cluster = make_cluster()
        barrier = Barrier(cluster.engine, parties=2)
        generations = []

        def rank():
            for _ in range(3):
                generation = yield from barrier.arrive()
                generations.append(generation)

        cluster.engine.process(rank())
        cluster.engine.process(rank())
        cluster.run()
        assert sorted(generations) == [1, 1, 2, 2, 3, 3]

    def test_overhead_delays_release(self):
        cluster = make_cluster()
        barrier = Barrier(cluster.engine, parties=2, overhead=0.5)
        times = []

        def rank():
            yield from barrier.arrive()
            times.append(cluster.engine.now)

        cluster.engine.process(rank())
        cluster.engine.process(rank())
        cluster.run()
        assert times == [0.5, 0.5]

    def test_validation(self):
        with pytest.raises(SimulationError):
            Barrier(make_cluster().engine, parties=0)


class TestHashBlock:
    def test_get_hash_block_returns_data_and_traces_comm(self):
        cluster = make_cluster()
        ga = GlobalArrays(cluster)
        array = ga.create("v2", 100)
        array.scatter(np.arange(100, dtype=float))
        got = {}

        def rank():
            node = cluster.nodes[2]
            data = yield from get_hash_block(ga, node, 0, array, 10, 30)
            got["data"] = data

        cluster.engine.process(rank())
        cluster.run()
        np.testing.assert_array_equal(got["data"], np.arange(10, 30, dtype=float))
        spans = cluster.trace.filtered(category=TaskCategory.COMM)
        assert len(spans) == 1
        assert spans[0].duration > 0
        assert spans[0].meta["bytes"] == 160.0

    def test_add_hash_block_accumulates_and_traces_write(self):
        cluster = make_cluster()
        ga = GlobalArrays(cluster)
        array = ga.create("i2", 50)

        def rank():
            node = cluster.nodes[1]
            yield from add_hash_block(ga, node, 0, array, 5, 15, np.ones(10))

        cluster.engine.process(rank())
        cluster.run()
        assert np.all(array.gather()[5:15] == 1.0)
        spans = cluster.trace.filtered(category=TaskCategory.WRITE)
        assert len(spans) == 1
        assert spans[0].label.startswith("ADD_HASH_BLOCK")

    def test_blocking_semantics_no_overlap(self):
        """A rank doing get -> compute -> add never overlaps the phases."""
        cluster = make_cluster()
        ga = GlobalArrays(cluster)
        array = ga.create("t", 100)
        array.scatter(np.ones(100))
        marks = []

        def rank():
            node = cluster.nodes[3]
            marks.append(("get.start", cluster.engine.now))
            data = yield from get_hash_block(ga, node, 0, array, 0, 25)
            marks.append(("get.end", cluster.engine.now))
            yield cluster.engine.timeout(1.0)  # the GEMM
            yield from add_hash_block(ga, node, 0, array, 25, 50, data)
            marks.append(("add.end", cluster.engine.now))

        cluster.engine.process(rank())
        cluster.run()
        get_end = dict(marks)["get.end"]
        add_end = dict(marks)["add.end"]
        assert get_end > 0
        assert add_end >= get_end + 1.0
