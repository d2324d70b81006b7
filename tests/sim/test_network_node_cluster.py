"""Unit tests for the interconnect, node, cost model, and cluster assembly."""

import dataclasses

import pytest

from repro.sim.cluster import Cluster, ClusterConfig, DataMode
from repro.sim.cost import MachineModel, OpCost
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.node import FifoServer, Node
from repro.sim.trace import TaskCategory, TraceRecorder
from repro.util.errors import ConfigurationError, SimulationError


def make_machine(**overrides):
    """A round-number machine so transfer arithmetic is easy to verify."""
    base = dict(
        gemm_gflops=1.0,
        mem_bw_bytes_per_s=100.0,
        nic_bw_bytes_per_s=10.0,
        net_latency_s=1.0,
    )
    base.update(overrides)
    return MachineModel(**base)


def make_pair(machine=None):
    engine = Engine()
    machine = machine or make_machine()
    trace = TraceRecorder()
    network = Network(engine, machine)
    nodes = [Node(engine, i, machine, cores=2, trace=trace) for i in range(3)]
    for node in nodes:
        network.register(node)
    return engine, network, nodes, trace


def receive(node, name="main"):
    """Open a mailbox that costs nothing to serve; returns the log of
    ``(payload, destination, arrival time)`` its handler keeps."""
    log = []
    node.serve(
        name,
        lambda message: (0.0, 0.0),
        lambda message: log.append((message.payload, message.dst, node.engine.now)),
    )
    return log


class TestNetwork:
    def test_remote_transfer_timing(self):
        # 50 bytes at 10 B/s: 5s tx + 1s latency + 5s rx = 11s
        engine, network, nodes, _ = make_pair()
        arrivals = receive(nodes[1])
        network.send(0, 1, 50.0, "hello", inbox="main")
        engine.run()
        assert arrivals == [("hello", 1, pytest.approx(11.0))]

    def test_local_delivery_is_immediate_and_skips_nic(self):
        engine, network, nodes, _ = make_pair()
        arrivals = receive(nodes[0])
        network.send(0, 0, 1e9, "local", inbox="main")
        engine.run()
        assert arrivals == [("local", 0, pytest.approx(0.0))]
        assert network.remote_messages == 0

    def test_sender_nic_serializes_messages(self):
        # Two 50-byte messages from node 0: second waits for the first's tx.
        engine, network, nodes, _ = make_pair()
        arrivals = [receive(nodes[1]), receive(nodes[2])]
        network.send(0, 1, 50.0, None, inbox="main")
        network.send(0, 2, 50.0, None, inbox="main")
        engine.run()
        assert arrivals[0] == [(None, 1, pytest.approx(11.0))]
        assert arrivals[1] == [(None, 2, pytest.approx(16.0))]  # tx starts at t=5

    @pytest.mark.parametrize("dst", [0, 1], ids=["same-node", "remote"])
    @pytest.mark.parametrize("size", [-1.0, float("nan")], ids=["negative", "nan"])
    def test_a_size_that_is_not_a_byte_count_is_refused_at_send(self, dst, size):
        # a NaN size used to be accepted: a same-node send turned the
        # byte counts into nan, a remote one failed later, inside run()
        engine, network, nodes, _ = make_pair()
        receive(nodes[dst])
        with pytest.raises(SimulationError, match="size"):
            network.send(0, dst, size, None, inbox="main")
        assert network.messages_sent == 0 and network.bytes_sent == 0

    def test_a_message_to_a_mailbox_that_is_not_open_is_an_error(self):
        engine, network, nodes, _ = make_pair()
        network.send(0, 1, 10.0, None, inbox="nowhere")
        with pytest.raises(SimulationError, match="no mailbox 'nowhere'"):
            engine.run()

    def test_sender_can_wait_for_delivery(self):
        engine, network, nodes, _ = make_pair()
        receive(nodes[1])
        done = []

        def sender():
            yield network.send(0, 1, 10.0, None, inbox="main")
            done.append(engine.now)

        engine.process(sender())
        engine.run()
        assert done == [pytest.approx(3.0)]  # 1 + 1 + 1

    def test_duplicate_registration_rejected(self):
        engine, network, nodes, _ = make_pair()
        with pytest.raises(SimulationError):
            network.register(nodes[0])

    def test_unknown_node_rejected(self):
        engine, network, nodes, _ = make_pair()
        with pytest.raises(SimulationError):
            network.node(99)

    def test_statistics(self):
        engine, network, nodes, _ = make_pair()
        receive(nodes[1], "x")
        network.send(0, 1, 100.0, None, inbox="x")
        network.send(1, 1, 50.0, None, inbox="x")
        engine.run()
        assert network.messages_sent == 2
        assert network.bytes_sent == 150.0
        assert network.remote_messages == 1


class TestNode:
    def test_charge_is_cpu_then_memory(self):
        engine, _, nodes, _ = make_pair()
        node = nodes[0]
        resumed = []

        def worker():
            # cpu 2s, 300 bytes at 100 B/s -> 3s memory phase
            resumed.append((yield node.charge(OpCost(2.0, 300.0))))

        engine.process(worker())
        engine.run()
        assert engine.now == pytest.approx(5.0)
        assert resumed == [None]
        assert node.membw.total_work == 300.0

    def test_concurrent_memory_phases_share_bandwidth(self):
        engine, _, nodes, trace = make_pair()
        node = nodes[0]
        ends = []

        def worker(thread):
            yield node.charge(OpCost(0.0, 100.0))
            ends.append(engine.now)

        engine.process(worker(0))
        engine.process(worker(1))
        engine.run()
        # two 100-byte jobs on 100 B/s shared -> both end at t=2
        assert ends == [pytest.approx(2.0), pytest.approx(2.0)]

    def test_named_inboxes_and_mutexes_are_cached(self):
        engine, _, nodes, _ = make_pair()
        node = nodes[0]
        receive(node, "ga")
        receive(node, "parsec")
        assert node.inbox("ga") is node.inbox("ga")
        assert node.mutex("write") is node.mutex("write")
        assert node.inbox("ga") is not node.inbox("parsec")

    def test_a_served_mailbox_handles_each_item_when_its_service_ends(self):
        engine, network, nodes, _ = make_pair()
        handled = []
        nodes[1].serve(
            "srv",
            lambda message: (2.0, 0.0),
            lambda message: handled.append(engine.now),
        )
        assert isinstance(nodes[1].inbox("srv"), FifoServer)
        with pytest.raises(SimulationError, match="already open"):
            nodes[1].serve("srv", lambda message: (0.0, 0.0), handled.append)
        network.send(0, 1, 10.0, None, inbox="srv")
        network.send(0, 1, 10.0, None, inbox="srv")
        engine.run()
        # arrivals at 3 and 4 (wire 1 + latency 1 + RX 1), served back to back
        assert handled == [pytest.approx(5.0), pytest.approx(7.0)]
        nodes[1].drop_inbox("srv")  # idle: nothing is lost
        assert "srv" not in nodes[1]._mailboxes

    def test_dropping_a_mailbox_that_holds_an_item_is_an_error(self):
        """The run-end check: an item queued at, or in service on, a
        mailbox when its owner drops it would be lost without a word."""
        engine, network, nodes, _ = make_pair()
        nodes[1].serve("srv", lambda message: (2.0, 0.0), lambda message: None)
        for _ in range(2):
            network.send(0, 1, 10.0, None, inbox="srv")
        engine.run(until=4.5)  # first item in service, second queued
        assert len(nodes[1].inbox("srv")) == 2
        with pytest.raises(SimulationError, match="2 item.s. unserved"):
            nodes[1].drop_inbox("srv")
        nodes[1].drop_inbox("never-opened")  # nothing to lose

    def test_mutex_inherits_machine_overheads(self):
        engine, _, nodes, _ = make_pair(
            make_machine(mutex_lock_s=0.5, mutex_unlock_s=0.25)
        )
        mutex = nodes[0].mutex("w")
        assert mutex.lock_overhead == 0.5
        assert mutex.unlock_overhead == 0.25

    def test_zero_core_node_rejected(self):
        engine = Engine()
        with pytest.raises(ValueError):
            Node(engine, 0, make_machine(), cores=0, trace=TraceRecorder())


class TestMachineModel:
    def test_gemm_cost_formula(self):
        machine = MachineModel(gemm_gflops=2.0)
        cost = machine.gemm(10, 20, 30)
        assert cost.cpu == pytest.approx(2 * 10 * 20 * 30 / 2.0e9)
        assert cost.bytes == 8 * (10 * 30 + 30 * 20 + 2 * 10 * 20)

    def test_sort_cache_warm_discount(self):
        machine = MachineModel(cache_reuse_discount=0.5)
        cold = machine.sort4(1000)
        warm = machine.sort4(1000, cache_warm=True)
        # a memory-bound shuffle on cache-resident data is cheaper on
        # both components (the CPU time is stall-dominated)
        assert warm.bytes == pytest.approx(cold.bytes * 0.5)
        assert warm.cpu == pytest.approx(cold.cpu * 0.5)

    def test_axpy_traffic(self):
        machine = MachineModel()
        cost = machine.axpy(100)
        assert cost.bytes == 8 * 3 * 100

    def test_with_overrides_returns_new_model(self):
        machine = MachineModel()
        faster = machine.with_overrides(nic_bw_bytes_per_s=1e12)
        assert faster.nic_bw_bytes_per_s == 1e12
        assert machine.nic_bw_bytes_per_s != 1e12

    def test_invalid_discount_rejected(self):
        with pytest.raises(ValueError):
            MachineModel(cache_reuse_discount=1.5)

    def test_opcost_validation_and_arith(self):
        with pytest.raises(ConfigurationError):
            OpCost(-1.0, 0.0)
        total = OpCost(1.0, 10.0) + OpCost(2.0, 20.0)
        assert (total.cpu, total.bytes) == (3.0, 30.0)
        assert OpCost(1.0, 10.0).scaled(2).bytes == 20.0


class TestCluster:
    def test_build_wires_everything(self):
        cluster = Cluster(ClusterConfig(n_nodes=4, cores_per_node=3))
        assert len(cluster.nodes) == 4
        assert cluster.cores_per_node == 3
        assert cluster.network.node(2) is cluster.nodes[2]
        assert cluster.n_nodes == 4

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(n_nodes=0)
        with pytest.raises(ConfigurationError):
            ClusterConfig(cores_per_node=0)

    def test_with_cores_preserves_rest(self):
        # a sweep builds each cell's config afresh; a copy with another
        # core count is ``dataclasses.replace``, which still validates
        config = ClusterConfig(n_nodes=8, cores_per_node=1, data_mode=DataMode.SYNTH)
        with pytest.raises(AttributeError):
            config.with_cores(15)
        swept = dataclasses.replace(config, cores_per_node=15)
        assert (swept.cores_per_node, swept.n_nodes) == (15, 8)
        assert swept.data_mode is DataMode.SYNTH
        with pytest.raises(ConfigurationError):
            dataclasses.replace(config, cores_per_node=0)

    def test_trace_can_be_disabled(self):
        cluster = Cluster(ClusterConfig(n_nodes=1, trace_enabled=False))
        cluster.trace.record(0, 0, TaskCategory.GEMM, "x", 0.0, 1.0)
        assert len(cluster.trace) == 0

    def test_total_cores(self):
        # nothing asks a config for its core total: no property for it
        with pytest.raises(AttributeError):
            ClusterConfig(n_nodes=32, cores_per_node=7).total_cores
