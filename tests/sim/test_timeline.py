"""Unit tests for the one timed store and its ``Timer``.

The load-bearing property is the ordering rule of DESIGN.md §6: heap
rows and immediate-lane entries draw from one shared sequence counter
and drain in global ``(time, seq)`` order, so the drain order is
*exactly* the order in which one big ``heapq`` — lane hops pushed at
zero delay — would have served the same events. ``reference_model``
below is that one big heap in a few lines; the merge tests drive the
same script through it and through the engine and compare the firing
orders and clock readings.
"""

import heapq
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.timeline import KIND_TASK, Timer
from repro.util.errors import SimulationError


@pytest.fixture
def engine():
    return Engine()


# ----------------------------------------------------------------------
# merge order against a pure-heapq reference model
# ----------------------------------------------------------------------
# A script is a list of actors ``(flavour, steps)``. An actor arms its
# timer for each step ``(delay, action)`` in turn; when the timer fires
# it logs ``(actor, step, now)`` and applies ``action`` — ``None``,
# ``("cancel", j)`` or ``("rearm", j, delay)`` aimed at actor ``j``'s
# pending timer (a no-op unless that timer is armed). Flavours:
# "owner" (one re-armable timer, resumed through the lane), "pooled"
# (``engine.timeout`` one-shots, same resume) and "direct" (callback in
# the drain slot). Actions never aim at a pooled actor: its timer is
# recycled on fire, so nobody may hold it.


def reference_model(actors):
    """All-heap order: one heapq for everything, lane hops included."""
    heap, seq, log, armed = [], itertools.count(), [], {}
    now = 0.0

    def arm(i, delay):
        armed[i] = s = next(seq)
        heapq.heappush(heap, (now + delay, s, "fire", i))

    def hop(i):  # a lane entry == a heap push at zero delay
        heapq.heappush(heap, (now, next(seq), "run", i))

    step = dict.fromkeys(range(len(actors)), -1)
    for i, (flavour, _) in enumerate(actors):
        if flavour != "direct":
            hop(i)  # process start
    for i, (flavour, steps) in enumerate(actors):
        if flavour == "direct" and steps:
            step[i] = 0
            arm(i, steps[0][0])
    while heap:
        time, s, what, i = heapq.heappop(heap)
        if what == "fire" and armed.get(i) != s:
            continue  # stale row: shed, clock untouched
        now = time
        flavour, steps = actors[i]
        if what == "fire":
            armed[i] = None
            if flavour != "direct":
                hop(i)  # resumed through the lane
                continue
        if step[i] >= 0:  # the body after a fired step
            log.append((i, step[i], now))
            action = steps[step[i]][1]
            if action is not None and armed.get(action[1]) is not None:
                armed[action[1]] = None
                if action[0] == "rearm":
                    arm(action[1], action[2])
        step[i] += 1
        if step[i] < len(steps):
            arm(i, steps[step[i]][0])
    return log, now


def engine_run(actors):
    """The same script through the real engine."""
    engine = Engine()
    log, timers = [], {}

    def act(action):
        target = timers.get(action[1]) if action is not None else None
        if target is not None and target.armed != -1:
            target.cancel()
            if action[0] == "rearm":
                target.after(action[2])

    def resumed(i, flavour, steps):
        owned = engine.timeline.timer(KIND_TASK)
        for k, (delay, action) in enumerate(steps):
            pooled = flavour == "pooled"
            timers[i] = engine.timeout(delay) if pooled else owned.after(delay)
            yield timers[i]
            log.append((i, k, engine.now))
            act(action)

    def direct(i, steps):
        timers[i] = timer = Timer(engine.timeline, lambda: fire())
        current = [0]

        def fire():
            log.append((i, current[0], engine.now))
            act(steps[current[0]][1])
            current[0] += 1
            if current[0] < len(steps):
                timer.after(steps[current[0]][0])

        if steps:
            timer.after(steps[0][0])

    for i, (flavour, steps) in enumerate(actors):
        if flavour != "direct":
            engine.process(resumed(i, flavour, steps))
    for i, (flavour, steps) in enumerate(actors):
        if flavour == "direct":
            direct(i, steps)
    end = engine.run()
    return log, end


FLAVOURS = ("owner", "pooled", "direct")


def _waits(flavour, delays):
    return (flavour, [(d, None) for d in delays])


class TestMergeEquivalence:
    """Engine drain order == all-heap order, per timer flavour and mixed."""

    def test_zero_delay_merge_matches_heap(self):
        # all events at t=0: ordering is decided purely by seq draws
        for flavour in FLAVOURS:
            script = [
                _waits(flavour, [0.0, 0.0, 0.0]),
                _waits(flavour, [0.0, 0.0]),
                _waits(flavour, [0.0]),
            ]
            assert engine_run(script) == reference_model(script)

    def test_nonzero_delay_merge_matches_heap(self):
        for flavour in FLAVOURS:
            script = [
                _waits(flavour, [0.5, 0.25, 0.25]),
                _waits(flavour, [0.25, 0.5, 0.25]),
                _waits(flavour, [1.0]),
            ]
            log, end = engine_run(script)
            assert (log, end) == reference_model(script)
            assert end == 1.0 and len(log) == 7

    def test_mixed_zero_and_nonzero_ties_match_heap(self):
        # deliberate (time, seq) ties across all three flavours
        script = [
            _waits("owner", [0.25, 0.25, 0.0]),
            _waits("pooled", [0.25, 0.0, 0.25]),
            _waits("direct", [0.25, 0.25, 0.0]),
        ]
        assert engine_run(script) == reference_model(script)

    def test_timeline_interleaves_with_live_heap_events(self, engine):
        """A resumed timer armed between two direct calls fires in between."""
        order = []
        engine.schedule(1.0, order.append, "direct@1")
        timer = engine.timeline.timer(KIND_TASK).after(2.0)
        timer._wait(lambda _: order.append("resumed@2"))
        engine.schedule(3.0, order.append, "direct@3")
        engine.run()
        assert order == ["direct@1", "resumed@2", "direct@3"]

    def test_direct_mode_matches_schedule(self):
        """A held direct Timer fires exactly where ``schedule`` would."""

        def scenario(held):
            engine = Engine()
            order = []
            first = lambda: order.append(("d", engine.now))
            if held:
                Timer(engine.timeline, first).after(1.0)
            else:
                engine.schedule(1.0, first)
            engine.schedule(1.0, lambda: order.append(("after", engine.now)))
            engine.call_soon(lambda _: order.append(("lane", next(engine._seq))))
            engine.run()
            return order

        assert scenario(False) == scenario(True)

    def test_cancelled_rows_tied_with_a_resumed_row(self):
        """A cancelled row at the instant a resumed row fires, before or
        after it in sequence order: the loop drops it only when popping
        it, so it can at most send the resume through the lane."""
        for flavour in ("owner", "pooled"):
            script = [
                _waits(flavour, [1.0, 0.0]),
                _waits("owner", [1.0]),  # armed after actor 0, cancelled
                ("direct", [(0.5, ("cancel", 1)), (0.0, ("cancel", 3))]),
                ("direct", [(1.0, None)]),  # armed first, cancelled
                ("direct", [(1.0, None)]),
            ]
            log, end = engine_run(script)
            assert (log, end) == reference_model(script)
            assert end == 1.0 and (3, 0, 1.0) not in log

    def test_lane_burst_before_a_strictly_later_head(self):
        """Process starts and zero-delay resumes fill the lane while the
        heap head lies later; re-arms at zero delay land mid-burst."""
        script = [
            _waits("owner", [0.0, 0.0, 1.0]),
            _waits("pooled", [0.0, 0.0]),
            ("owner", [(0.0, ("rearm", 3, 0.0)), (0.0, None)]),
            ("direct", [(1.0, None)]),
            _waits("pooled", [0.0]),
        ]
        log, end = engine_run(script)
        assert (log, end) == reference_model(script)
        assert (3, 0, 0.0) in log  # the re-armed head fired at once

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_scripts_match_reference_model(self, data):
        """Arm / cancel / re-arm / zero-delay ops across all flavours."""
        delay = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])
        flavours = data.draw(
            st.lists(st.sampled_from(FLAVOURS), min_size=1, max_size=5)
        )
        targets = [j for j, f in enumerate(flavours) if f != "pooled"]
        action = st.none()
        if targets:
            target = st.sampled_from(targets)
            action = st.one_of(
                st.none(),
                st.tuples(st.just("cancel"), target),
                st.tuples(st.just("rearm"), target, delay),
            )
        script = [
            (f, data.draw(st.lists(st.tuples(delay, action), max_size=5)))
            for f in flavours
        ]
        assert engine_run(script) == reference_model(script)


# ----------------------------------------------------------------------
# timer lifecycle
# ----------------------------------------------------------------------
class TestChannels:
    def test_rearm_while_armed_is_rejected(self, engine):
        timer = engine.timeline.timer(KIND_TASK)
        timer.after(1.0)
        with pytest.raises(SimulationError, match="re-armed while armed"):
            timer.after(1.0)

    def test_negative_delay_rejected(self, engine):
        timer = engine.timeline.timer(KIND_TASK)
        with pytest.raises(SimulationError, match="finite and >= 0"):
            timer.after(-0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", ["schedule", "timeout", "timer"])
    def test_non_finite_delay_rejected(self, engine, entry, bad):
        """NaN passes ``delay < 0`` and then breaks the heap order for
        every later event; all three entry points share one check."""
        order = []
        engine.schedule(2.0, order.append, 2.0)
        with pytest.raises(SimulationError, match="finite and >= 0"):
            if entry == "schedule":
                engine.schedule(bad, order.append, bad)
            elif entry == "timeout":
                engine.timeout(bad)
            else:
                engine.timeline.timer(KIND_TASK).after(bad)
        engine.schedule(1.0, order.append, 1.0)
        engine.schedule(0.5, order.append, 0.5)
        assert engine.run() == 2.0
        assert order == [0.5, 1.0, 2.0]

    def test_disarm_cancels_pending_row(self, engine):
        fired = []
        timer = engine.timeline.timer(KIND_TASK).after(1.0)
        timer._wait(lambda _: fired.append(1))
        timer.cancel()
        timer.cancel()  # idempotent: counted once
        assert engine.timeline.stale_pending == 1
        assert engine.run() == 0.0  # a shed row does not move the clock
        assert fired == []
        assert engine.timeline.pending == engine.timeline.stale_pending == 0

    def test_rearm_replaces_pending_row(self, engine):
        times = []
        timer = engine.timeline.timer(KIND_TASK).after(5.0)
        timer._wait(lambda _: times.append(engine.now))
        timer.cancel()
        timer.after(1.0)
        assert engine.run() == 1.0  # the stale 5.0 row is shed silently
        assert times == [1.0]

    def test_timer_yields_resume_with_none(self, engine):
        seen = []

        def proc():
            timer = engine.timeline.timer(KIND_TASK)
            seen.append((yield timer.after(0.5)))
            seen.append((yield engine.timeout(0.5)))

        engine.process(proc())
        assert engine.run() == 1.0
        assert seen == [None, None]

    def test_persistent_is_default_mode(self, engine):
        """``timeline.timer()`` resumes through the lane: the hop draws a
        fresh seq, so a same-instant direct call armed later runs first."""
        order = []
        timer = engine.timeline.timer().after(1.0)
        timer._wait(lambda _: order.append("resumed"))
        engine.schedule(1.0, order.append, "direct")
        engine.run()
        assert order == ["direct", "resumed"]

    def test_timer_aliases_survive_compaction(self, engine):
        """A held timer (and the loop's heap alias) stay valid across
        ``_compact()``, which rebuilds the heap in place."""
        timeline = engine.timeline
        timer = timeline.timer(KIND_TASK)
        churn = [timeline.timer(KIND_TASK).after(5.0) for _ in range(80)]
        fired = []

        def compact_mid_run():
            for t in churn:
                t.cancel()  # 80 stale rows force a compaction inside run()
            assert timeline.pending < 80
            timer.after(1.0)._wait(lambda _: fired.append(engine.now))

        engine.schedule(1.0, compact_mid_run)
        engine.run()
        assert fired == [2.0]

    def test_timeout_one_shots_are_recycled(self, engine):
        def proc():
            for _ in range(100):
                yield engine.timeout(1.0)

        engine.process(proc())
        engine.process(proc())
        assert engine.run() == 100.0
        assert len(engine._timeout_pool) == 2  # peak concurrency, not 200

    def test_unwaited_timeout_does_not_resume_a_stale_waiter(self, engine):
        resumed = []

        def proc():
            yield engine.timeout(1.0)
            resumed.append(engine.now)

        engine.process(proc())
        engine.run()
        engine.timeout(1.0)  # recycled timer, nobody yields it
        assert engine.run() == 2.0
        assert resumed == [1.0]

    def test_wait_on_unarmed_timer_rejected(self, engine):
        stale = engine.timeout(1.0)
        engine.run()
        with pytest.raises(SimulationError, match="not armed"):
            stale._wait(lambda _: None)
