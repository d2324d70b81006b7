"""Unit tests for the DES kernel: events, timeouts, processes, combinators."""

import pytest

from repro.sim.engine import Engine, all_of
from repro.util.errors import SimulationError


@pytest.fixture
def engine():
    return Engine()


def timed(engine, delay, value=None):
    """An event that succeeds with ``value`` after ``delay``: the spelling
    for a timeout that carries a value or feeds a combinator."""
    event = engine.event()
    engine.schedule(delay, event.succeed, value)
    return event


class TestScheduling:
    def test_clock_starts_at_zero(self, engine):
        assert engine.now == 0.0

    def test_schedule_runs_in_time_order(self, engine):
        order = []
        engine.schedule(2.0, order.append, "b")
        engine.schedule(1.0, order.append, "a")
        engine.schedule(3.0, order.append, "c")
        engine.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self, engine):
        order = []
        for tag in range(5):
            engine.schedule(1.0, order.append, tag)
        engine.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(-0.1, lambda: None)

    def test_run_returns_final_time(self, engine):
        engine.schedule(5.5, lambda: None)
        assert engine.run() == 5.5

    def test_run_until_stops_early(self, engine):
        fired = []
        engine.schedule(10.0, fired.append, True)
        assert engine.run(until=4.0) == 4.0
        assert fired == []
        # remaining event still fires on a later run
        engine.run()
        assert fired == [True]

    def test_run_until_advances_clock_past_empty_heap(self, engine):
        assert engine.run(until=7.0) == 7.0
        assert engine.now == 7.0

    def test_cancelled_call_does_not_run(self, engine):
        fired = []
        call = engine.schedule(1.0, fired.append, 1)
        call.cancel()
        engine.run()
        assert fired == []

    def test_peek_skips_cancelled(self, engine):
        first = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        first.cancel()
        assert engine.peek() == 2.0


class TestSimEvent:
    def test_succeed_delivers_value(self, engine):
        event = engine.event()
        got = []
        event._wait(lambda ev: got.append(ev.value))
        event.succeed(42)
        engine.run()
        assert got == [42]

    def test_late_waiter_still_fires(self, engine):
        event = engine.event()
        event.succeed("x")
        got = []
        event._wait(lambda ev: got.append(ev.value))
        engine.run()
        assert got == ["x"]

    def test_double_trigger_rejected(self, engine):
        event = engine.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()
        with pytest.raises(SimulationError):
            event.fail(ValueError("x"))

    def test_fail_requires_exception(self, engine):
        with pytest.raises(SimulationError):
            engine.event().fail("not an exception")

    def test_state_flags(self, engine):
        event = engine.event()
        assert not event.triggered and not event.ok and not event.failed
        event.succeed(1)
        assert event.triggered and event.ok and not event.failed


class TestTimeout:
    def test_timeout_fires_at_delay(self, engine):
        times = []
        timeout = engine.timeout(3.0)
        timeout._wait(lambda ev: times.append(engine.now))
        engine.run()
        assert times == [3.0]

    def test_timeout_value_passthrough(self, engine):
        timeout = timed(engine, 1.0, value="payload")
        got = []
        timeout._wait(lambda ev: got.append(ev.value))
        engine.run()
        assert got == ["payload"]

    def test_negative_timeout_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.timeout(-1.0)


class TestProcess:
    def test_simple_sequence(self, engine):
        log = []

        def worker():
            log.append(("start", engine.now))
            yield engine.timeout(2.0)
            log.append(("mid", engine.now))
            yield engine.timeout(3.0)
            log.append(("end", engine.now))

        engine.process(worker())
        engine.run()
        assert log == [("start", 0.0), ("mid", 2.0), ("end", 5.0)]

    def test_return_value_on_completion(self, engine):
        def worker():
            yield engine.timeout(1.0)
            return "done"

        proc = engine.process(worker())
        results = []
        proc._wait(lambda ev: results.append(ev.value))
        engine.run()
        assert results == ["done"]
        assert proc.triggered

    def test_process_joins_process(self, engine):
        def child():
            yield engine.timeout(4.0)
            return 99

        def parent():
            value = yield engine.process(child())
            assert engine.now == 4.0
            return value

        proc = engine.process(parent())
        engine.run()
        assert proc.value == 99

    def test_yield_from_subgenerator(self, engine):
        def helper():
            yield engine.timeout(1.0)
            yield engine.timeout(1.0)
            return "sub"

        def worker():
            value = yield from helper()
            return value

        proc = engine.process(worker())
        engine.run()
        assert proc.value == "sub"
        assert engine.now == 2.0

    def test_unhandled_exception_propagates_from_run(self, engine):
        def worker():
            yield engine.timeout(1.0)
            raise RuntimeError("boom")

        engine.process(worker())
        with pytest.raises(SimulationError, match="unhandled exception"):
            engine.run()

    def test_failed_event_thrown_into_process(self, engine):
        event = engine.event()
        caught = []

        def worker():
            try:
                yield event
            except ValueError as exc:
                caught.append(str(exc))

        engine.process(worker())
        engine.schedule(1.0, event.fail, ValueError("injected"))
        engine.run()
        assert caught == ["injected"]

    def test_waited_process_failure_propagates_to_waiter(self, engine):
        def child():
            yield engine.timeout(1.0)
            raise KeyError("inner")

        def parent():
            try:
                yield engine.process(child())
            except KeyError:
                return "caught"

        proc = engine.process(parent())
        engine.run()
        assert proc.value == "caught"

    def test_non_generator_rejected(self, engine):
        with pytest.raises(SimulationError, match="generator"):
            engine.process(lambda: None)

    def test_yield_non_waitable_rejected(self, engine):
        def worker():
            yield 42

        engine.process(worker())
        with pytest.raises(SimulationError):
            engine.run()

    def test_joiner_after_finish_resumes_through_the_lane(self, engine):
        def worker():
            yield engine.timeout(1.0)
            return "done"

        proc = engine.process(worker())
        engine.run()
        results = []
        proc._wait(lambda ev: results.append((engine.now, ev.value)))
        # deferred, like a late waiter on any triggered event
        assert results == [] and len(engine._immediate) == 1
        engine.run()
        assert results == [(1.0, "done")]

    def test_close_drops_a_joiner_without_waking_it(self, engine):
        def parked():
            yield engine.event()  # never triggered

        proc = engine.process(parked(), name="parked")
        woken = []
        proc._wait(woken.append)
        engine.run()
        proc.close()
        engine.run()
        assert woken == [] and not engine._immediate
        assert proc.triggered and proc.failed
        assert isinstance(proc.value, SimulationError)


class TestCombinators:
    def test_all_of_collects_values_in_order(self, engine):
        t1 = timed(engine, 3.0, value="late")
        t2 = timed(engine, 1.0, value="early")
        results = []

        def worker():
            values = yield all_of(engine, [t1, t2])
            results.append((engine.now, values))

        engine.process(worker())
        engine.run()
        assert results == [(3.0, ["late", "early"])]

    def test_all_of_joins_a_process_and_an_event_in_input_order(self, engine):
        def child():
            yield engine.timeout(2.0)
            return "process"

        event = timed(engine, 1.0, value="event")
        combined = all_of(engine, [engine.process(child()), event])
        engine.run()
        assert combined.value == ["process", "event"]

    def test_all_of_empty_fires_immediately(self, engine):
        combined = all_of(engine, [])
        assert combined.triggered and combined.value == []

    def test_all_of_fails_on_first_failure(self, engine):
        good = timed(engine, 5.0)
        bad = engine.event()
        engine.schedule(1.0, bad.fail, RuntimeError("nope"))
        caught = []

        def worker():
            try:
                yield all_of(engine, [good, bad])
            except RuntimeError as exc:
                caught.append((engine.now, str(exc)))

        engine.process(worker())
        engine.run()
        assert caught == [(1.0, "nope")]


class TestCancelInteraction:
    """Timer.cancel crossed with peek() and run(until=...)."""

    def test_cancel_between_bounded_runs(self, engine):
        fired = []
        call = engine.schedule(5.0, fired.append, True)
        assert engine.run(until=3.0) == 3.0
        call.cancel()
        # the cancelled slot is popped silently; the clock does not
        # advance to its time
        assert engine.run() == 3.0
        assert fired == []

    def test_peek_none_when_all_cancelled(self, engine):
        a = engine.schedule(1.0, lambda: None)
        b = engine.schedule(2.0, lambda: None)
        a.cancel()
        b.cancel()
        assert engine.peek() is None

    def test_callback_cancels_later_call(self, engine):
        fired = []
        later = engine.schedule(2.0, fired.append, "later")
        engine.schedule(1.0, later.cancel)
        engine.run()
        assert fired == []

    def test_run_until_ignores_cancelled_head(self, engine):
        fired = []
        head = engine.schedule(1.0, fired.append, "head")
        engine.schedule(5.0, fired.append, "tail")
        head.cancel()
        # the cancelled head must not stop a bounded run short of until
        assert engine.run(until=2.0) == 2.0
        assert fired == []
        engine.run()
        assert fired == ["tail"]

    def test_cancel_after_firing_is_harmless(self, engine):
        fired = []
        call = engine.schedule(1.0, fired.append, True)
        engine.run()
        call.cancel()  # no-op: already popped
        assert fired == [True]


class TestCombinatorFailures:
    """all_of under failing inputs."""

    def test_all_of_late_successes_after_failure_ignored(self, engine):
        bad = engine.event()
        good = timed(engine, 3.0, value="late")
        engine.schedule(1.0, bad.fail, RuntimeError("early"))
        caught = []

        def worker():
            try:
                yield all_of(engine, [bad, good])
            except RuntimeError as exc:
                caught.append((engine.now, str(exc)))

        engine.process(worker())
        engine.run()  # good still fires at 3.0; must not re-trigger
        assert caught == [(1.0, "early")]

    def test_all_of_with_already_failed_input(self, engine):
        dead = engine.event()
        dead.fail(KeyError("gone"))
        caught = []

        def worker():
            try:
                yield all_of(engine, [dead, timed(engine, 1.0)])
            except KeyError:
                caught.append(engine.now)

        engine.process(worker())
        engine.run()
        assert caught == [0.0]


class TestDeterminism:
    def test_identical_runs_produce_identical_schedules(self):
        def build_and_run():
            engine = Engine()
            log = []

            def worker(tag, delay):
                for _ in range(3):
                    yield engine.timeout(delay)
                    log.append((tag, engine.now))

            for tag in range(4):
                engine.process(worker(tag, 0.5 + 0.25 * tag))
            engine.run()
            return log

        assert build_and_run() == build_and_run()

    def test_run_not_reentrant(self, engine):
        def worker():
            yield engine.timeout(1.0)
            engine.run()

        engine.process(worker())
        with pytest.raises(SimulationError):
            engine.run()


class TestImmediateLane:
    """The zero-delay fast path: lane + heap merge in global seq order."""

    def test_call_soon_runs_callbacks(self, engine):
        got = []
        engine.call_soon(got.append, "a")
        engine.call_soon(got.append, "b")
        engine.run()
        assert got == ["a", "b"]

    def test_lane_merges_with_heap_by_seq(self, engine):
        # same timestamp: whoever registered first (lower seq) runs first,
        # exactly as if everything had gone through the heap
        order = []
        engine.schedule(0.0, order.append, "heap0")  # seq 0
        engine.call_soon(order.append, "lane1")      # seq 1
        engine.schedule(0.0, order.append, "heap2")  # seq 2
        engine.run()
        assert order == ["heap0", "lane1", "heap2"]

    def test_lane_runs_before_later_heap_times(self, engine):
        order = []
        engine.schedule(5.0, order.append, "later")

        def at_t1():
            engine.call_soon(order.append, "lane@1")

        engine.schedule(1.0, at_t1)
        engine.run()
        assert order == ["lane@1", "later"]

    def test_event_dispatch_goes_through_lane_not_heap(self, engine):
        event = engine.event()
        got = []
        event._wait(lambda ev: got.append(ev.value))
        event.succeed(9)
        assert engine.timeline.pending == 0  # no zero-delay heapq traffic
        engine.run()
        assert got == [9]

    def test_run_until_does_not_drain_future_lane_entries(self, engine):
        # a lane entry stamped beyond `until` must survive for a later run()
        fired = []

        def at_t3():
            engine.call_soon(fired.append, True)

        engine.schedule(3.0, at_t3)
        engine.run(until=2.0)
        assert fired == []
        engine.run()
        assert fired == [True]

    def test_checkpoint_resumes_through_lane(self, engine):
        log = []

        def proc():
            log.append(("before", engine.now))
            yield engine.checkpoint
            log.append(("after", engine.now))

        engine.process(proc())
        engine.run()
        assert log == [("before", 0.0), ("after", 0.0)]

    def test_checkpoint_consumes_one_seq_like_presucceeded_get(self):
        # two engines, two spellings of "yield once at now": the subsequent
        # timeout must land on the same (time, seq) slot in both
        def drive(use_checkpoint):
            engine = Engine()
            order = []

            def proc():
                if use_checkpoint:
                    yield engine.checkpoint
                else:
                    event = engine.event()
                    event.succeed(None)
                    yield event
                order.append("proc")

            engine.process(proc())
            engine.process(iter_marker(engine, order))
            engine.run()
            return order

        def iter_marker(engine, order):
            yield engine.timeout(0.0)
            order.append("marker")

        assert drive(True) == drive(False)

    def test_peek_sees_lane_head(self, engine):
        engine.schedule(4.0, lambda _=None: None)
        engine.call_soon(lambda _=None: None)
        assert engine.peek() == 0.0


class TestHeapCompaction:
    def test_heap_size_and_cancelled_pending_track_schedule_cancel(self, engine):
        timeline = engine.timeline
        calls = [engine.schedule(float(i + 1), lambda _=None: None) for i in range(10)]
        assert timeline.pending == 10
        assert timeline.stale_pending == 0
        calls[0].cancel()
        calls[0].cancel()  # idempotent: counted once
        assert timeline.stale_pending == 1
        assert timeline.pending == 10  # lazy: still occupying a slot

    def test_compaction_reclaims_majority_cancelled(self, engine):
        timeline = engine.timeline
        calls = [engine.schedule(float(i + 1), lambda _=None: None) for i in range(100)]
        for call in calls[:70]:
            call.cancel()
        # threshold (>= 64 cancelled and more than half the heap) was crossed
        assert timeline.stale_pending < 64
        assert timeline.pending - timeline.stale_pending == 30
        engine.run()
        assert timeline.pending == 0

    def test_cancel_churn_keeps_heap_bounded(self, engine):
        peak = 0
        for i in range(10_000):
            engine.schedule(1.0 + i, lambda _=None: None).cancel()
            peak = max(peak, engine.timeline.pending)
        assert peak <= 130  # compaction bound, not monotone growth

    def test_cancel_after_run_does_not_corrupt_counter(self, engine):
        call = engine.schedule(1.0, lambda _=None: None)
        engine.run()
        call.cancel()  # already popped: must not count as heap garbage
        assert engine.timeline.stale_pending == 0

    def test_compaction_preserves_order_and_delivery(self, engine):
        order = []
        keep = []
        for i in range(200):
            call = engine.schedule(float(i), order.append, i)
            if i % 3:
                call.cancel()
            else:
                keep.append(i)
        engine.run()
        assert order == keep
