"""Unit tests for FIFO resources and the processor-sharing bandwidth model."""

import pytest

from repro.sim.engine import Engine
from repro.sim.resources import BandwidthResource, Resource
from repro.util.errors import SimulationError


@pytest.fixture
def engine():
    return Engine()


class TestResource:
    def test_uncontended_acquire_is_immediate(self, engine):
        resource = Resource(engine, capacity=1)
        event = resource.acquire()
        assert event.triggered
        assert resource.in_use == 1

    def test_release_without_acquire_rejected(self, engine):
        resource = Resource(engine, capacity=1)
        with pytest.raises(SimulationError):
            resource.release()

    def test_capacity_below_one_rejected(self, engine):
        with pytest.raises(SimulationError):
            Resource(engine, capacity=0)

    def test_fifo_granting_order(self, engine):
        resource = Resource(engine, capacity=1)
        order = []

        def worker(tag, hold):
            yield resource.acquire()
            order.append((tag, engine.now))
            yield engine.timeout(hold)
            resource.release()

        for tag in range(3):
            engine.process(worker(tag, 2.0))
        engine.run()
        assert order == [(0, 0.0), (1, 2.0), (2, 4.0)]

    def test_capacity_two_allows_two_holders(self, engine):
        resource = Resource(engine, capacity=2)
        starts = []

        def worker(tag):
            yield resource.acquire()
            starts.append((tag, engine.now))
            yield engine.timeout(5.0)
            resource.release()

        for tag in range(3):
            engine.process(worker(tag))
        engine.run()
        assert starts == [(0, 0.0), (1, 0.0), (2, 5.0)]

    def test_a_held_slot_serializes_holders(self, engine):
        resource = Resource(engine, capacity=1)
        spans = []

        def worker(tag):
            start = engine.now
            yield resource.acquire()
            yield engine.timeout(3.0)
            resource.release()
            spans.append((tag, start, engine.now))

        engine.process(worker("a"))
        engine.process(worker("b"))
        engine.run()
        assert spans == [("a", 0.0, 3.0), ("b", 0.0, 6.0)]

    def test_wait_time_statistics(self, engine):
        resource = Resource(engine, capacity=1)

        def hold(duration):
            yield resource.acquire()
            yield engine.timeout(duration)
            resource.release()

        def waiter():
            yield engine.timeout(1.0)
            yield from hold(1.0)

        engine.process(hold(4.0))
        engine.process(waiter())
        engine.run()
        # waiter queued at t=1, granted at t=4 -> waited 3
        assert resource.total_wait_time == pytest.approx(3.0)
        assert resource.total_acquisitions == 2

    def test_try_acquire_takes_a_free_slot_or_nothing(self, engine):
        resource = Resource(engine, capacity=1)
        assert resource.try_acquire()
        assert not resource.try_acquire()  # held: nothing taken, no waiter
        assert resource.in_use == 1 and resource.queue_length == 0
        assert resource.total_acquisitions == 1
        resource.release()
        assert resource.in_use == 0

    def test_queue_length_reflects_waiters(self, engine):
        resource = Resource(engine, capacity=1)
        resource.acquire()
        resource.acquire()
        resource.acquire()
        assert resource.queue_length == 2

    def test_release_skips_abandoned_waiter(self, engine):
        """Regression: a grant must never go to a dead waiter.

        Pre-fix, release() granted the slot to whichever waiter was
        oldest — including one whose process had been killed. The
        abandoned event never resumed anybody, so the slot leaked and
        every later waiter deadlocked.
        """
        resource = Resource(engine, capacity=1)
        resource.acquire()  # holder
        dead = resource.acquire()  # will be killed while parked
        live = resource.acquire()
        dead.abandon()
        resource.release()
        assert not dead.triggered
        assert live.triggered  # the live waiter got the slot...
        assert resource.in_use == 1  # ...and the slot did not leak
        resource.release()
        assert resource.in_use == 0

    def test_release_skips_already_triggered_waiter(self, engine):
        """A waiter event that somehow fired early is not granted twice."""
        resource = Resource(engine, capacity=1)
        resource.acquire()
        raced = resource.acquire()
        live = resource.acquire()
        raced.succeed()  # fired outside the grant path
        resource.release()
        assert live.triggered
        assert resource.in_use == 1

    def test_release_with_only_dead_waiters_frees_the_slot(self, engine):
        resource = Resource(engine, capacity=1)
        resource.acquire()
        resource.acquire().abandon()
        resource.release()
        assert resource.in_use == 0
        assert resource.acquire().triggered  # fresh acquire is immediate

    def test_abandon_waiters_counts_live_only(self, engine):
        resource = Resource(engine, capacity=1)
        resource.acquire()
        first = resource.acquire()
        resource.acquire()
        first.abandon()
        assert resource.abandon_waiters() == 1
        assert resource.queue_length == 0
        resource.release()
        assert resource.in_use == 0  # no waiter left to grant to


class TestBandwidthResource:
    def test_single_job_duration(self, engine):
        bandwidth = BandwidthResource(engine, capacity=10.0)
        done = []

        def worker():
            yield bandwidth.transfer(50.0)
            done.append(engine.now)

        engine.process(worker())
        engine.run()
        assert done == [pytest.approx(5.0)]

    def test_two_equal_jobs_share_equally(self, engine):
        bandwidth = BandwidthResource(engine, capacity=10.0)
        done = []

        def worker(tag):
            yield bandwidth.transfer(50.0)
            done.append((tag, engine.now))

        engine.process(worker("a"))
        engine.process(worker("b"))
        engine.run()
        # both take 100/10 = 10s at half rate each
        assert done[0][1] == pytest.approx(10.0)
        assert done[1][1] == pytest.approx(10.0)

    def test_staggered_arrival_processor_sharing_math(self, engine):
        # job1: 100 units at t=0; job2: 50 units at t=2; capacity 10.
        # t in [0,2): job1 alone at rate 10 -> 80 left at t=2.
        # t in [2,12): both at rate 5; job2 finishes at t=12 (50/5).
        # t in [12,15): job1 alone, 30 left at rate 10 -> t=15.
        bandwidth = BandwidthResource(engine, capacity=10.0)
        done = {}

        def job1():
            yield bandwidth.transfer(100.0)
            done["job1"] = engine.now

        def job2():
            yield engine.timeout(2.0)
            yield bandwidth.transfer(50.0)
            done["job2"] = engine.now

        engine.process(job1())
        engine.process(job2())
        engine.run()
        assert done["job2"] == pytest.approx(12.0)
        assert done["job1"] == pytest.approx(15.0)

    def test_zero_transfer_completes_immediately(self, engine):
        bandwidth = BandwidthResource(engine, capacity=1.0)
        event = bandwidth.transfer(0.0)
        assert event.triggered

    def test_negative_transfer_rejected(self, engine):
        bandwidth = BandwidthResource(engine, capacity=1.0)
        with pytest.raises(SimulationError):
            bandwidth.transfer(-1.0)

    def test_nan_transfer_rejected(self, engine):
        # a NaN amount used to be accepted, and its wakeup then re-armed
        # at the same instant forever: refused before the engine runs
        bandwidth = BandwidthResource(engine, capacity=1.0)
        with pytest.raises(SimulationError, match="nan"):
            bandwidth.transfer(float("nan"))

    def test_many_jobs_slow_each_other_down(self, engine):
        bandwidth = BandwidthResource(engine, capacity=100.0)
        finish = []

        def worker():
            yield bandwidth.transfer(100.0)
            finish.append(engine.now)

        for _ in range(8):
            engine.process(worker())
        engine.run()
        # 8 jobs of 100 units on capacity 100 -> all finish at t=8
        assert all(t == pytest.approx(8.0) for t in finish)

    def test_utilization_accounting(self, engine):
        bandwidth = BandwidthResource(engine, capacity=10.0)

        def worker():
            yield bandwidth.transfer(20.0)  # busy [0, 2]
            yield engine.timeout(2.0)       # idle [2, 4]
            yield bandwidth.transfer(20.0)  # busy [4, 6]

        engine.process(worker())
        engine.run()
        assert engine.now == pytest.approx(6.0)
        assert bandwidth.busy_time == pytest.approx(4.0)  # 4 of 6 s busy
        assert bandwidth.total_work == pytest.approx(40.0)

    def test_tiny_residual_does_not_stall_the_clock(self, engine):
        """Regression: a residual whose completion delay underflows float
        time resolution (now + delay == now) must finish, not loop."""
        bandwidth = BandwidthResource(engine, capacity=5.0e10)
        done = []

        def worker(size, delay):
            yield engine.timeout(delay)
            yield bandwidth.transfer(size)
            done.append(engine.now)

        # staggered small transfers at realistic byte/bandwidth scales,
        # which is where the drift was observed
        for i in range(50):
            engine.process(worker(680.0 * (i + 1), 0.0004 * i / 7.0))
        engine.run()
        assert len(done) == 50

    def test_completion_order_matches_remaining_work(self, engine):
        bandwidth = BandwidthResource(engine, capacity=10.0)
        order = []

        def worker(tag, size):
            yield bandwidth.transfer(size)
            order.append(tag)

        engine.process(worker("small", 10.0))
        engine.process(worker("large", 100.0))
        engine.run()
        assert order == ["small", "large"]
