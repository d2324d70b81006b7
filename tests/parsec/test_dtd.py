"""Tests for the Dynamic Task Discovery runtime and its CCSD port."""

import numpy as np
import pytest

from repro.core import api
from repro.core.dtd_port import run_over_dtd
from repro.parsec.dtd import AccessMode, DtdKind, DtdRuntime
from repro.sim.cluster import Cluster, ClusterConfig, DataMode
from repro.sim.cost import OpCost
from repro.sim.faults import FaultPlan, NodeCrash
from repro.sim.node import FifoServer
from repro.sim.trace import TaskCategory
from repro.tce.reference import compute_reference, correlation_energy
from repro.util.errors import ConfigurationError, DataflowError


def make_cluster(n_nodes=2, cores=2, data_mode=DataMode.REAL):
    return Cluster(
        ClusterConfig(n_nodes=n_nodes, cores_per_node=cores, data_mode=data_mode)
    )


_R, _RW, _W = AccessMode.READ, AccessMode.RW, AccessMode.WRITE


def burn(duration, log=None, value=None):
    """A body that takes ``duration``, logs its task and, given a
    ``value``, publishes it as its one handle's."""

    def body(ctx):
        yield ctx.charge(OpCost(duration, 0.0))
        if log is not None:
            log.append((ctx.task.name, ctx.cluster.engine.now))
        if value is not None:
            ctx.values[0] = value

    return body


class TestDependenceInference:
    def test_read_after_write(self):
        cluster = make_cluster()
        runtime = DtdRuntime(cluster)
        x = runtime.data("x", 1, 0)
        log = []
        runtime.insert(DtdKind("W", burn(1.0, log, 42), (_W,)), (), (x,), 0)
        runtime.insert(DtdKind("R", burn(0.5, log), (_R,)), (), (x,), 0)
        result = runtime.execute()
        assert [name for name, _ in log] == ["W", "R"]
        assert result.n_edges == 1

    def test_write_after_read_antidependence(self):
        cluster = make_cluster()
        runtime = DtdRuntime(cluster)
        x = runtime.data("x", 1, 0)
        log = []
        runtime.insert(DtdKind("W1", burn(1.0, log, 1), (_W,)), (), (x,), 0)
        runtime.insert(DtdKind("R1", burn(1.0, log), (_R,)), (), (x,), 0)
        runtime.insert(DtdKind("R2", burn(1.0, log), (_R,)), (), (x,), 0)
        runtime.insert(DtdKind("W2", burn(1.0, log, 2), (_W,)), (), (x,), 0)
        runtime.execute()
        order = {name: i for i, (name, _) in enumerate(log)}
        assert order["W1"] < order["R1"] and order["W1"] < order["R2"]
        assert order["W2"] > order["R1"] and order["W2"] > order["R2"]

    def test_independent_tasks_run_in_parallel(self):
        cluster = make_cluster(cores=4)
        runtime = DtdRuntime(cluster)
        finish = []

        def body(ctx):
            yield ctx.charge(OpCost(1.0, 0.0))
            finish.append(ctx.cluster.engine.now)

        for i in range(4):
            x = runtime.data(f"x{i}", 1, 0)
            runtime.insert(DtdKind(f"T{i}", body, (_W,)), (), (x,), 0)
        result = runtime.execute()
        assert result.n_edges == 0
        # all ran concurrently (plus insertion + per-task overhead)
        assert max(finish) - min(finish) < 0.5

    def test_rw_chains_serialize(self):
        cluster = make_cluster(cores=4)
        runtime = DtdRuntime(cluster)
        acc = runtime.data("acc", 1, 0)
        log = []
        for i in range(5):
            runtime.insert(DtdKind(f"U{i}", burn(0.2, log), (_RW,)), (), (acc,), 0)
        runtime.execute()
        assert [name for name, _ in log] == [f"U{i}" for i in range(5)]

    def test_values_flow_between_tasks(self):
        cluster = make_cluster()
        runtime = DtdRuntime(cluster)
        x = runtime.data("x", 1, 0)
        got = {}

        def producer(ctx):
            yield ctx.charge(OpCost(0.1, 0.0))
            ctx.values[0] = 99

        def consumer(ctx):
            yield ctx.charge(OpCost(0.1, 0.0))
            got["x"] = ctx.values[0]

        runtime.insert(DtdKind("P", producer, (_W,)), (), (x,), 0)
        runtime.insert(DtdKind("C", consumer, (_R,)), (), (x,), 1)
        result = runtime.execute()
        assert got["x"] == 99
        assert result.messages_remote == 1

    def test_insert_after_execute_rejected(self):
        cluster = make_cluster()
        runtime = DtdRuntime(cluster)
        runtime.execute()
        with pytest.raises(DataflowError):
            runtime.insert(DtdKind("late", burn(0.1), ()), (), (), 0)

    def test_bad_access_mode_rejected(self):
        cluster = make_cluster()
        runtime = DtdRuntime(cluster)
        x = runtime.data("x", 1, 0)
        with pytest.raises(DataflowError):
            runtime.insert(DtdKind("T", burn(0.1), ("bogus",)), (), (x,), 0)

    def test_non_finite_priority_rejected(self):
        """A NaN would misrank every other task in the priority table:
        the insert is refused, naming the task, and leaves no trace."""
        cluster = make_cluster()
        runtime = DtdRuntime(cluster)
        x = runtime.data("x", 1, 0)
        for priority in (float("nan"), float("-inf")):
            kind = DtdKind("T", burn(0.1), (_W,))
            with pytest.raises(DataflowError, match=r"T\(3\) has non-finite"):
                runtime.insert(kind, (3,), (x,), 0, priority=priority)
        assert runtime.n_tasks == 0
        runtime.insert(DtdKind("T", burn(0.1), (_W,)), (3,), (x,), 0, priority=1.0)
        assert runtime.execute().n_tasks == 1

    def test_insertion_time_charged(self):
        cluster = make_cluster()
        runtime = DtdRuntime(cluster)
        for i in range(10):
            x = runtime.data(f"x{i}", 1, 0)
            runtime.insert(DtdKind(f"T{i}", burn(0.0), (_W,)), (), (x,), 0)
        result = runtime.execute()
        assert result.insertion_time > 0
        assert result.execution_time >= result.insertion_time


    def test_one_receiver_per_node_for_the_runtimes_lifetime(self):
        cluster = make_cluster(n_nodes=4)
        runtime = DtdRuntime(cluster)
        x = runtime.data("x", 1, 0)
        with_mailbox = []

        def body(ctx):
            with_mailbox.extend(
                n.node_id
                for n in cluster.nodes
                if isinstance(n._mailboxes.get(runtime._inbox_name), FifoServer)
            )
            yield ctx.charge(OpCost(1.0, 0.0))

        # one node-local task: no node ever receives a message
        runtime.insert(DtdKind("T", body, (_W,)), (), (x,), 0)
        result = runtime.execute()
        assert result.messages_remote == 0
        assert with_mailbox == [0, 1, 2, 3]  # opened at execute(), not by traffic
        for node in cluster.nodes:
            assert not any(name.startswith("dtd.recv#") for name in node._mailboxes)


class TestFaultPlans:
    """DTD has no retry gate and no crash recovery: plans it cannot
    honour are rejected, not silently ignored; what the network and
    ``cpu_scale()`` honour stays allowed."""

    def run(self, plan):
        config = api.RunConfig(n_nodes=4, cores_per_node=2)
        workload = api.build("t2_7:tiny", config)
        workload.i2.array.enable_ordered_accumulation()
        if plan is not None:
            workload.cluster.install_faults(plan)
        api.run(workload, runtime="dtd", config=config)
        return workload

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(task_fail_prob=0.3),
            FaultPlan(crashes=(NodeCrash(node=1, at=1.0e-4),)),
        ],
        ids=["task_fail_prob", "crashes"],
    )
    def test_plans_dtd_cannot_honour_are_rejected(self, plan):
        with pytest.raises(ConfigurationError, match="DTD runtime"):
            self.run(plan)

    def test_message_fates_are_honoured_bitwise(self):
        clean = self.run(None)
        faulted = self.run(FaultPlan(master_seed=3, drop_prob=0.05, delay_prob=0.05))
        report = faulted.cluster.faults.report
        assert report.retransmits > 0 and report.messages_delayed > 0
        assert np.array_equal(clean.i2.flat_values(), faulted.i2.flat_values())


class TestCcsdOverDtd:
    def test_numerics_match_reference(self):
        cluster = make_cluster(n_nodes=4)
        workload = api.build("t2_7:tiny", api.RunConfig(), cluster=cluster)
        result = run_over_dtd(cluster, workload.subroutine)
        expected = compute_reference(workload)
        np.testing.assert_allclose(
            workload.i2.flat_values(), expected, rtol=1e-12, atol=1e-12
        )
        assert result.n_tasks > 3 * workload.subroutine.n_gemms

    def test_energy_matches_ptg_to_14_digits(self):
        def fresh():
            cluster = make_cluster(n_nodes=4)
            return cluster, api.build("t2_7:tiny", api.RunConfig(), cluster=cluster)

        cluster, workload = fresh()
        run_over_dtd(cluster, workload.subroutine)
        dtd_energy = correlation_energy(workload.i2.flat_values())
        cluster, workload = fresh()
        api.run(workload, "v5")
        ptg_energy = correlation_energy(workload.i2.flat_values())
        assert dtd_energy == pytest.approx(ptg_energy, rel=1e-13)

    def test_dag_is_materialized(self):
        """The DTD cost the paper calls out: every edge exists in memory."""
        cluster = make_cluster(n_nodes=4, data_mode=DataMode.SYNTH)
        workload = api.build("t2_7:tiny", api.RunConfig(), cluster=cluster)
        result = run_over_dtd(cluster, workload.subroutine)
        # at minimum: 2 edges into each GEMM, 1 out of it, plus
        # reduce/sort/write edges
        assert result.n_edges >= 3 * workload.subroutine.n_gemms

    def test_trace_has_task_classes(self):
        cluster = make_cluster(n_nodes=4, data_mode=DataMode.SYNTH)
        workload = api.build("t2_7:tiny", api.RunConfig(), cluster=cluster)
        run_over_dtd(cluster, workload.subroutine)
        counts = cluster.trace.count_by_category()
        for category in (
            TaskCategory.READ_A,
            TaskCategory.GEMM,
            TaskCategory.SORT,
            TaskCategory.WRITE,
        ):
            assert counts.get(category, 0) > 0

    def test_deterministic(self):
        def once():
            cluster = make_cluster(n_nodes=4, data_mode=DataMode.SYNTH)
            workload = api.build("t2_7:tiny", api.RunConfig(), cluster=cluster)
            return run_over_dtd(cluster, workload.subroutine).execution_time

        assert once() == once()
