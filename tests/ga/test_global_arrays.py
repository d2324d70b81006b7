"""Integration tests for GlobalArray storage and one-sided get/acc."""

import numpy as np
import pytest

from repro.ga.runtime import GlobalArrays
from repro.sim.cluster import Cluster, ClusterConfig, DataMode
from repro.sim.cost import MachineModel
from repro.util.errors import GlobalArrayError, SimulationError


def make_cluster(n_nodes=4, data_mode=DataMode.REAL, **machine_overrides):
    machine = MachineModel(**machine_overrides) if machine_overrides else MachineModel()
    return Cluster(
        ClusterConfig(
            n_nodes=n_nodes, cores_per_node=2, machine=machine, data_mode=data_mode
        )
    )


def run_op(cluster, op):
    """Drive one generator op to completion inside the simulation."""
    result = {}

    def driver():
        result["value"] = yield from op
        result["time"] = cluster.engine.now

    cluster.engine.process(driver())
    cluster.run()
    return result


class TestArrayStorage:
    def test_create_and_access_local_view(self):
        cluster = make_cluster()
        ga = GlobalArrays(cluster)
        array = ga.create("t", 100)
        view = array.ga_access(1, 25, 30)
        view[:] = 7.0
        assert np.all(array.gather()[25:30] == 7.0)

    def test_ga_access_rejects_remote_range(self):
        cluster = make_cluster()
        array = GlobalArrays(cluster).create("t", 100)
        with pytest.raises(GlobalArrayError, match="not within local"):
            array.ga_access(0, 20, 30)  # straddles node 0/1 boundary

    def test_duplicate_name_rejected(self):
        ga = GlobalArrays(make_cluster())
        first = ga.create("t", 10)
        with pytest.raises(GlobalArrayError):
            ga.create("t", 10)
        # the runtime looks arrays up without owning them: the name is
        # taken for as long as whoever created the array keeps it
        del first
        with pytest.raises(GlobalArrayError):
            ga.lookup("t")
        assert ga.create("t", 10).total == 10

    def test_lookup(self):
        ga = GlobalArrays(make_cluster())
        array = ga.create("amps", 50)
        assert ga.lookup("amps") is array
        with pytest.raises(GlobalArrayError):
            ga.lookup("missing")

    def test_scatter_gather_roundtrip(self):
        array = GlobalArrays(make_cluster()).create("t", 97)
        values = np.arange(97, dtype=float)
        array.scatter(values)
        np.testing.assert_array_equal(array.gather(), values)

    def test_scatter_shape_checked(self):
        array = GlobalArrays(make_cluster()).create("t", 10)
        with pytest.raises(GlobalArrayError):
            array.scatter(np.zeros(11))

    def test_zero(self):
        array = GlobalArrays(make_cluster()).create("t", 20)
        array.scatter(np.ones(20))
        array.zero()
        assert np.all(array.gather() == 0.0)

    def test_destroyed_array_unusable(self):
        # an array lives as long as its GlobalArrays: there is no
        # destroy, and no liveness check on every access
        array = GlobalArrays(make_cluster()).create("t", 10)
        with pytest.raises(AttributeError):
            array.destroy()
        assert np.all(array.gather() == 0.0)

    def test_synth_mode_has_no_storage(self):
        array = GlobalArrays(make_cluster(data_mode=DataMode.SYNTH)).create("t", 10)
        assert not array.holds_data
        with pytest.raises(GlobalArrayError):
            array.gather()
        with pytest.raises(GlobalArrayError):
            array.ga_access(0, 0, 1)


class TestFetch:
    def test_fetch_returns_correct_data_single_segment(self):
        cluster = make_cluster()
        ga = GlobalArrays(cluster)
        array = ga.create("t", 100)
        array.scatter(np.arange(100, dtype=float))
        result = run_op(cluster, ga.fetch(3, array, 30, 40))
        np.testing.assert_array_equal(result["value"], np.arange(30, 40, dtype=float))

    def test_fetch_straddling_segments_reassembles(self):
        cluster = make_cluster()
        ga = GlobalArrays(cluster)
        array = ga.create("t", 100)
        array.scatter(np.arange(100, dtype=float))
        result = run_op(cluster, ga.fetch(0, array, 20, 60))
        np.testing.assert_array_equal(result["value"], np.arange(20, 60, dtype=float))

    def test_fetch_in_synth_mode_returns_none_but_costs_time(self):
        cluster = make_cluster(data_mode=DataMode.SYNTH)
        ga = GlobalArrays(cluster)
        array = ga.create("t", 100)
        result = run_op(cluster, ga.fetch(3, array, 0, 10))
        assert result["value"] is None
        assert result["time"] > 0

    def test_remote_fetch_slower_than_local(self):
        def timed_fetch(requester):
            cluster = make_cluster()
            ga = GlobalArrays(cluster)
            array = ga.create("t", 100)
            return run_op(cluster, ga.fetch(requester, array, 0, 25))["time"]

        local = timed_fetch(0)   # data on node 0
        remote = timed_fetch(3)
        assert remote > local > 0

    def test_fetch_updates_statistics(self):
        cluster = make_cluster()
        ga = GlobalArrays(cluster)
        array = ga.create("t", 100)
        run_op(cluster, ga.fetch(1, array, 0, 50))
        assert ga.gets == 1
        assert ga.bytes_fetched == 400.0


class TestAccumulate:
    def test_accumulate_adds_in_place(self):
        cluster = make_cluster()
        ga = GlobalArrays(cluster)
        array = ga.create("t", 100)
        array.scatter(np.ones(100))
        run_op(cluster, ga.accumulate(2, array, 10, 20, 2.0 * np.ones(10)))
        expected = np.ones(100)
        expected[10:20] += 2.0
        np.testing.assert_array_equal(array.gather(), expected)

    def test_accumulate_straddling_segments(self):
        cluster = make_cluster()
        ga = GlobalArrays(cluster)
        array = ga.create("t", 100)
        run_op(cluster, ga.accumulate(0, array, 20, 60, np.arange(40, dtype=float)))
        np.testing.assert_array_equal(array.gather()[20:60], np.arange(40, dtype=float))
        assert np.all(array.gather()[:20] == 0)
        assert np.all(array.gather()[60:] == 0)

    def test_concurrent_accumulates_to_same_range_are_atomic(self):
        cluster = make_cluster()
        ga = GlobalArrays(cluster)
        array = ga.create("t", 40)

        def writer(rank):
            yield from ga.accumulate(rank, array, 0, 40, np.full(40, 1.0))

        for rank in range(4):
            cluster.engine.process(writer(rank))
        cluster.run()
        np.testing.assert_array_equal(array.gather(), np.full(40, 4.0))

    def test_accumulate_shape_mismatch_rejected(self):
        cluster = make_cluster()
        ga = GlobalArrays(cluster)
        array = ga.create("t", 10)
        gen = ga.accumulate(0, array, 0, 5, np.zeros(6))
        # the error surfaces when the simulated process is driven,
        # wrapped by the kernel with the original as __cause__
        with pytest.raises(SimulationError) as exc_info:
            run_op(cluster, gen)
        assert isinstance(exc_info.value.__cause__, GlobalArrayError)

    def test_accumulate_without_data_rejected_in_real_mode(self):
        cluster = make_cluster()
        ga = GlobalArrays(cluster)
        array = ga.create("t", 10)
        with pytest.raises(SimulationError) as exc_info:
            run_op(cluster, ga.accumulate(0, array, 0, 5, None))
        assert isinstance(exc_info.value.__cause__, GlobalArrayError)

    def test_accumulate_synth_mode_accepts_none(self):
        cluster = make_cluster(data_mode=DataMode.SYNTH)
        ga = GlobalArrays(cluster)
        array = ga.create("t", 10)
        result = run_op(cluster, ga.accumulate(0, array, 0, 5, None))
        assert result["time"] > 0
        assert ga.accs == 1


class TestContention:
    def test_many_remote_fetches_queue_at_owner(self):
        """Handler FIFO: n simultaneous gets finish later than one."""

        def total_time(n_requesters):
            cluster = make_cluster(n_nodes=8)
            ga = GlobalArrays(cluster)
            array = ga.create("t", 80)  # 10 elems per node

            def reader(rank):
                yield from ga.fetch(rank, array, 0, 10)  # all hit node 0

            for rank in range(1, 1 + n_requesters):
                cluster.engine.process(reader(rank))
            return cluster.run()

        assert total_time(6) > total_time(1)

    def test_deterministic_timing(self):
        def one_run():
            cluster = make_cluster()
            ga = GlobalArrays(cluster)
            array = ga.create("t", 100)
            times = []

            def reader(rank):
                yield from ga.fetch(rank, array, 0, 50)
                times.append(cluster.engine.now)

            for rank in range(4):
                cluster.engine.process(reader(rank))
            cluster.run()
            return times

        assert one_run() == one_run()
