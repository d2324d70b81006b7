"""Cross-cutting property-based tests (hypothesis).

These pin the invariants the whole reproduction rests on: event
ordering in the DES kernel, conservation in the processor-sharing
bandwidth model, queue-discipline correctness, barrier semantics, chain
IR consistency over arbitrary orbital spaces, inspection-phase
partitioning, and end-to-end numerical equality between the runtimes on
randomly generated workloads.
"""

import heapq

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import api
from repro.core.metadata import ChainMeta, reduce_tree
from repro.ga.runtime import GlobalArrays
from repro.ga.sync import Barrier
from repro.legacy.runtime import LegacyRuntime
from repro.sim.cluster import Cluster, ClusterConfig, DataMode
from repro.sim.engine import Engine
from repro.sim.queues import RankStore
from repro.sim.resources import BandwidthResource
from repro.tce.orbital_space import OrbitalSpace
from repro.tce.t2_7 import T2_7_SPEC
from repro.tce.terms import TermStructure

slow_settings = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestEngineProperties:
    @given(delays=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_events_fire_in_time_order(self, delays):
        engine = Engine()
        fired = []
        for delay in delays:
            engine.schedule(delay, fired.append, delay)
        engine.run()
        assert fired == sorted(delays)
        assert engine.now == max(delays)

    @given(
        steps=st.lists(
            st.floats(min_value=0.001, max_value=10), min_size=1, max_size=20
        ),
        n_procs=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_process_clock_is_monotone(self, steps, n_procs):
        engine = Engine()
        observed = []

        def worker():
            for step in steps:
                yield engine.timeout(step)
                observed.append(engine.now)

        for _ in range(n_procs):
            engine.process(worker())
        engine.run()
        assert observed == sorted(observed)
        assert engine.now == pytest.approx(sum(steps))


class TestBandwidthProperties:
    @given(
        jobs=st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=1000.0),   # size
                st.floats(min_value=0.0, max_value=50.0),     # arrival
            ),
            min_size=1,
            max_size=15,
        ),
        capacity=st.floats(min_value=1.0, max_value=100.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_processor_sharing_conservation(self, jobs, capacity):
        engine = Engine()
        bandwidth = BandwidthResource(engine, capacity=capacity)
        completions = {}

        def worker(index, size, arrival):
            yield engine.timeout(arrival)
            yield bandwidth.transfer(size)
            completions[index] = engine.now

        for index, (size, arrival) in enumerate(jobs):
            engine.process(worker(index, size, arrival))
        engine.run()
        # every job finishes
        assert len(completions) == len(jobs)
        total_work = sum(size for size, _ in jobs)
        first_arrival = min(arrival for _, arrival in jobs)
        last_completion = max(completions.values())
        # the server cannot beat its capacity...
        assert last_completion >= first_arrival + total_work / capacity - 1e-6
        # ...and no job beats its own solo service time
        for index, (size, arrival) in enumerate(jobs):
            assert completions[index] >= arrival + size / capacity - 1e-9

    @given(
        sizes=st.lists(
            st.floats(min_value=1.0, max_value=100.0), min_size=2, max_size=10
        ),
        cap=st.floats(min_value=0.5, max_value=5.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_per_job_cap_bounds_single_job_rate(self, sizes, cap):
        engine = Engine()
        bandwidth = BandwidthResource(engine, capacity=1000.0, per_job_cap=cap)
        completions = []

        def worker(size):
            yield bandwidth.transfer(size)
            completions.append((size, engine.now))

        for size in sizes:
            engine.process(worker(size))
        engine.run()
        for size, at in completions:
            assert at >= size / cap - 1e-9


class TestQueueProperties:
    @given(
        ops=st.lists(
            st.tuples(st.integers(min_value=-100, max_value=100)),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_priority_store_pops_in_priority_order(self, ops):
        """A ready queue puts each item at its priority's rank among the
        distinct priorities (0 = the highest)."""
        engine = Engine()
        store = RankStore(engine, span=len(ops))
        table = sorted({priority for (priority,) in ops}, reverse=True)
        rank = {priority: index for index, priority in enumerate(table)}
        for index, (priority,) in enumerate(ops):
            store.put(index, rank[priority])
        popped = []
        while True:
            ok, index = store.try_get()
            if not ok:
                break
            popped.append((ops[index][0], index))
        assert len(popped) == len(ops)
        # non-increasing priority; FIFO within equal priorities
        for (p1, i1), (p2, i2) in zip(popped, popped[1:]):
            assert p1 > p2 or (p1 == p2 and i1 < i2)


    @given(
        ops=st.lists(
            st.one_of(st.integers(min_value=0, max_value=40), st.none()),
            min_size=1,
            max_size=80,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_rank_store_pops_as_the_priority_store_does(self, ops):
        """Puts (a rank) interleaved with pops (``None``): a rank store
        hands out what a heap of ``(-priority, seq, item)`` given
        priority ``-rank`` would."""
        engine = Engine()
        ranked, reference = RankStore(engine, span=len(ops)), []

        def pop_reference():
            if not reference:
                return False, None
            return True, heapq.heappop(reference)[2]

        for seq, (item, rank) in enumerate(enumerate(ops)):
            if rank is None:
                assert ranked.try_get() == pop_reference()
            else:
                ranked.put(item, rank)
                priority = -float(rank)
                heapq.heappush(reference, (-priority, seq, item))
        while reference:
            assert ranked.try_get() == pop_reference()
        assert ranked.try_get() == (False, None)


class TestBarrierProperties:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=12
        ),
        overhead=st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_release_time_is_max_arrival(self, delays, overhead):
        engine = Engine()
        barrier = Barrier(engine, parties=len(delays), overhead=overhead)
        releases = []

        def party(delay):
            yield engine.timeout(delay)
            yield from barrier.arrive()
            releases.append(engine.now)

        for delay in delays:
            engine.process(party(delay))
        engine.run()
        expected = max(delays) + overhead
        assert all(t == pytest.approx(expected) for t in releases)


@st.composite
def orbital_spaces(draw):
    nocc = draw(st.integers(min_value=2, max_value=12))
    nvirt = draw(st.integers(min_value=2, max_value=20))
    tile = draw(st.integers(min_value=2, max_value=6))
    return OrbitalSpace(nocc, nvirt, tile)


class TestChainIrProperties:
    @given(space=orbital_spaces(), seed=st.integers(min_value=0, max_value=10))
    @slow_settings
    def test_chain_invariants_over_random_spaces(self, space, seed):
        cluster = Cluster(ClusterConfig(n_nodes=3, data_mode=DataMode.SYNTH))
        ga = GlobalArrays(cluster)
        workload = TermStructure(space, T2_7_SPEC).bind(ga, seed)
        for chain in workload.subroutine.chains:
            # the output tile is exactly the m x n chain result
            assert chain.m * chain.n == chain.c_size
            for sw in chain.active_sorts:
                assert sw.target.size == chain.c_size
            # all active sorts target the same block
            targets = {(sw.target.lo, sw.target.hi) for sw in chain.active_sorts}
            assert len(targets) == 1
            # GEMM operand shapes agree with the chain
            for gemm in chain.gemms:
                assert gemm.m == chain.m and gemm.n == chain.n
                assert gemm.a.size == gemm.k * gemm.m
                assert gemm.b.size == gemm.k * gemm.n

    @given(
        n_gemms=st.integers(min_value=1, max_value=40),
        height=st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
    )
    @settings(max_examples=60, deadline=None)
    def test_segments_partition_positions(self, n_gemms, height):
        seg_len = n_gemms if height is None else min(height, n_gemms)
        chain = ChainMeta(0, (0,) * n_gemms, (0,) * n_gemms, seg_len, ())
        cursor = 0
        for s in range(chain.n_segments):
            start = s * seg_len
            segment = range(start, min(start + seg_len, n_gemms))
            assert segment.start == cursor
            assert len(segment) >= 1
            if height is not None:
                assert len(segment) <= height
            # GEMM L2 is in segment L2 // seg_len
            assert all(L2 // seg_len == s for L2 in segment)
            cursor = segment.stop
        assert cursor == n_gemms

    @given(n=st.integers(min_value=1, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_reduce_tree_consumes_every_source_once(self, n):
        tree = reduce_tree(n)
        if n == 1:
            assert tree.left == tree.right == tree.consumer == ()
            return
        assert len(tree.left) == n - 1
        # every segment and every step but the root (source 2n - 2)
        # appears exactly once as a source, read by its consumer
        sources = tree.left + tree.right
        assert sorted(sources) == list(range(2 * n - 2))
        for source in sources:
            step = tree.consumer[source]
            assert source in (tree.left[step], tree.right[step])


class TestEndToEndProperties:
    @given(space=orbital_spaces(), seed=st.integers(min_value=0, max_value=5))
    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_v1_bitwise_equals_legacy_on_random_workloads(self, space, seed):
        def run(kind):
            cluster = Cluster(
                ClusterConfig(n_nodes=3, cores_per_node=2, data_mode=DataMode.REAL)
            )
            ga = GlobalArrays(cluster)
            workload = TermStructure(space, T2_7_SPEC).bind(ga, seed)
            if kind == "legacy":
                LegacyRuntime(cluster, ga).execute_subroutine(workload.subroutine)
            else:
                api.run(workload, "v1")
            return workload.i2.flat_values()

        np.testing.assert_array_equal(run("legacy"), run("v1"))

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_v5_matches_legacy_to_14_digits_any_seed(self, seed):
        space = OrbitalSpace(6, 10, 3)

        def run(kind):
            cluster = Cluster(
                ClusterConfig(n_nodes=3, cores_per_node=2, data_mode=DataMode.REAL)
            )
            ga = GlobalArrays(cluster)
            workload = TermStructure(space, T2_7_SPEC).bind(ga, seed)
            if kind == "legacy":
                LegacyRuntime(cluster, ga).execute_subroutine(workload.subroutine)
            else:
                api.run(workload, "v5")
            return workload.i2.flat_values()

        np.testing.assert_allclose(run("legacy"), run("v5"), rtol=1e-12, atol=1e-12)
