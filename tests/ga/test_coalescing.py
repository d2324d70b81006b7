"""The per-destination aggregation window (message coalescing).

Pins the Coalescer's merge mechanics — batch formation in submit
order, the early flush at ``COALESCE_MAX_BATCH``, the flush at
``COALESCE_WINDOW_S``, the pass-through when coalescing is off, the
single-item passthrough that keeps a lone message byte-identical to a plain send —
and, end to end, that GA fetches and PaRSEC runs with coalescing on
produce the same bytes with fewer wire messages.
"""

import math

import numpy as np
import pytest

from repro.core.api import RunConfig
from repro.ga.runtime import GlobalArrays
from repro.sim.cluster import Cluster, ClusterConfig, DataMode
from repro.sim.cost import MachineModel
from repro.ga.cache import RemoteCachePolicy
from repro.parsec.stealing import StealPolicy
from repro.sim.network import (
    COALESCE_MAX_BATCH,
    COALESCE_WINDOW_S,
    BatchPayload,
    CoalescePolicy,
    Coalescer,
)


def make_cluster(n_nodes=4, cores_per_node=2):
    return Cluster(
        ClusterConfig(
            n_nodes=n_nodes,
            cores_per_node=cores_per_node,
            machine=MachineModel(),
            data_mode=DataMode.REAL,
        )
    )


def sink(cluster, name):
    """Open ``name`` on every node as a mailbox that costs nothing to
    serve; returns the messages each node received, by node id."""
    received = {node.node_id: [] for node in cluster.nodes}
    for node in cluster.nodes:
        node.serve(name, lambda message: (0.0, 0.0), received[node.node_id].append)
    return received


def drain(cluster, inbox_name):
    """Collect every message delivered to node 1's mailbox."""
    received = sink(cluster, inbox_name)
    cluster.run()
    return received[1]


class TestCoalescer:
    def test_batch_preserves_submit_order(self):
        cluster = make_cluster()
        coalescer = Coalescer(cluster.network, 0, CoalescePolicy(), inbox="test")
        coalescer.submit(1, 64.0, "a")
        coalescer.submit(1, 64.0, "b")
        coalescer.submit(1, 64.0, "c")
        received = drain(cluster, "test")
        assert len(received) == 1
        payload = received[0].payload
        assert isinstance(payload, BatchPayload)
        assert payload.items == ["a", "b", "c"]
        assert payload.sizes == [64.0, 64.0, 64.0]
        assert received[0].size_bytes == 192.0
        assert coalescer.batches == 1
        assert coalescer.messages_saved == 2

    def test_max_batch_flushes_early(self):
        cluster = make_cluster()
        coalescer = Coalescer(cluster.network, 0, CoalescePolicy(), inbox="test")
        for i in range(COALESCE_MAX_BATCH - 1):
            coalescer.submit(1, 64.0, i)
        before = cluster.network.remote_messages
        coalescer.submit(1, 64.0, "last")  # fills the window: flushes NOW
        assert cluster.network.remote_messages == before + 1
        coalescer.submit(1, 64.0, "next")  # a fresh window
        received = drain(cluster, "test")
        assert [len(m.payload) if isinstance(m.payload, BatchPayload) else 1
                for m in received] == [COALESCE_MAX_BATCH, 1]

    def test_single_item_window_leaves_as_plain_send(self):
        cluster = make_cluster()
        coalescer = Coalescer(cluster.network, 0, CoalescePolicy(), inbox="test")
        coalescer.submit(1, 64.0, "lone", tag="my-tag")
        received = drain(cluster, "test")
        assert len(received) == 1
        assert received[0].payload == "lone"  # no BatchPayload wrapper
        assert received[0].size_bytes == 64.0
        assert received[0].tag == "my-tag"
        assert coalescer.batches == 0

    def test_separate_destinations_never_merge(self):
        cluster = make_cluster()
        coalescer = Coalescer(cluster.network, 0, CoalescePolicy(), inbox="test")
        coalescer.submit(1, 64.0, "to-1")
        coalescer.submit(2, 64.0, "to-2")
        sink(cluster, "test")
        cluster.run()
        assert coalescer.batches == 0
        assert cluster.network.remote_messages == 2

    def test_local_destination_bypasses_window(self):
        cluster = make_cluster()
        coalescer = Coalescer(cluster.network, 0, CoalescePolicy(), inbox="test")
        coalescer.submit(0, 64.0, "self")
        # sent directly (no window armed), never counted as wire traffic
        assert cluster.network.remote_messages == 0
        received = sink(cluster, "test")
        cluster.run()
        assert [message.payload for message in received[0]] == ["self"]

    def test_none_policy_passes_messages_through(self):
        cluster = make_cluster()
        coalescer = Coalescer(cluster.network, 0, None, inbox="test")
        coalescer.submit(1, 64.0, "a")
        coalescer.submit(1, 64.0, "b")
        assert cluster.network.remote_messages == 2  # sent at submit
        assert coalescer.batches == 0
        received = drain(cluster, "test")
        assert [message.payload for message in received] == ["a", "b"]

    def test_window_expiry_splits_batches_in_time(self):
        cluster = make_cluster()
        coalescer = Coalescer(cluster.network, 0, CoalescePolicy(), inbox="test")

        def producer():
            coalescer.submit(1, 64.0, "early-1")
            coalescer.submit(1, 64.0, "early-2")
            yield cluster.engine.timeout(2 * COALESCE_WINDOW_S)  # past the window
            coalescer.submit(1, 64.0, "late")

        cluster.engine.process(producer())
        received = drain(cluster, "test")
        assert len(received) == 2
        assert isinstance(received[0].payload, BatchPayload)
        assert received[0].payload.items == ["early-1", "early-2"]
        assert received[1].payload == "late"


class TestCoalescedFetch:
    def test_fetch_correct_and_fewer_wire_messages(self):
        def fan_out(policy):
            cluster = make_cluster()
            ga = GlobalArrays(cluster, coalescing=policy)
            array = ga.create("t", 100)
            array.scatter(np.arange(100, dtype=float))
            results = {}

            def client(idx, lo, hi):
                # concurrent clients on node 0 fetching from the same
                # owner (node 1 holds [25, 50)): requests that land in
                # the same aggregation window merge
                block = yield from ga.fetch(0, array, lo, hi)
                results[idx] = (lo, block)

            for idx, (lo, hi) in enumerate([(25, 35), (35, 45), (40, 50)]):
                cluster.engine.process(client(idx, lo, hi))
            cluster.run()
            return results, cluster.network.remote_messages, ga

        base_results, base_msgs, base_ga = fan_out(None)
        # off is the pass-through coalescer: nothing merges, no window is
        # opened, so no flush timer is left armed at quiescence
        assert base_ga.coalesced_batches == base_ga.messages_saved == 0
        assert not any(c._windows for c in base_ga._coalescers)
        assert base_ga.cluster.engine.timeline.pending == 0
        co_results, co_msgs, ga = fan_out(CoalescePolicy())
        for idx, (lo, block) in co_results.items():
            np.testing.assert_array_equal(block, base_results[idx][1])
            np.testing.assert_array_equal(
                block, np.arange(lo, lo + len(block), dtype=float)
            )
        assert co_msgs < base_msgs
        assert ga.coalesced_batches > 0
        # the owner answers a batched request with one batched reply, so
        # the wire saves at least the request-side merges counted here
        assert ga.messages_saved >= 1
        assert base_msgs - co_msgs >= ga.messages_saved


class TestParsecCoalescing:
    def test_v5_bitwise_equal_with_fewer_remote_messages(self):
        from repro.core import api
        from repro.workloads import build_workload

        def run(policy):
            cluster = make_cluster(n_nodes=4, cores_per_node=4)
            ga = GlobalArrays(cluster, coalescing=policy)
            workload = build_workload("t2_7:tiny", cluster, ga, seed=7)
            workload.output.array.enable_ordered_accumulation()
            # the same policy drives both lanes: GA fetches (via ga) and
            # the PaRSEC dataflow (via the config)
            result = api.run(
                workload, runtime="parsec", config=RunConfig(coalescing=policy)
            )
            return (
                workload.output.array.gather(),
                cluster.network.remote_messages,
                result.execution_time,
            )

        base_out, base_msgs, _ = run(None)
        co_out, co_msgs, co_time = run(CoalescePolicy())
        np.testing.assert_array_equal(base_out, co_out)
        assert co_msgs < base_msgs
        assert co_time > 0


class TestRunConfigKnobs:
    def test_default_config_has_knobs_off(self):
        config = RunConfig()
        assert config.coalescing is None
        assert config.remote_cache is None


class TestPolicyValidation:
    """``COALESCE_WINDOW_S`` feeds ``Engine.schedule``, where a NaN would
    corrupt the event heap. The window and the batch bound are module
    constants: a value passed to ``CoalescePolicy`` is refused, and the
    constants themselves meet the bounds a setting once had to."""

    @pytest.mark.parametrize("window_s", [float("nan"), float("inf"), -1e-6])
    def test_window_must_be_finite_and_non_negative(self, window_s):
        with pytest.raises(TypeError, match="window_s"):
            CoalescePolicy(window_s=window_s)
        assert math.isfinite(COALESCE_WINDOW_S) and COALESCE_WINDOW_S >= 0.0

    @pytest.mark.parametrize("max_batch", [0, -1, 2.5])
    def test_max_batch_must_be_a_positive_int(self, max_batch):
        with pytest.raises(TypeError, match="max_batch"):
            CoalescePolicy(max_batch=max_batch)
        assert type(COALESCE_MAX_BATCH) is int and COALESCE_MAX_BATCH > 1


class TestPoliciesAreMarkers:
    """A comm knob is on or off; its window, batch and capacity are
    module constants, not settings."""

    @pytest.mark.parametrize("marker", [CoalescePolicy, RemoteCachePolicy, StealPolicy])
    def test_constructs_with_no_arguments(self, marker):
        assert marker() == marker()
