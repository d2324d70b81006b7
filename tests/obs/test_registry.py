"""Tests of the metrics registry: counters, gauges, histograms, phases."""

import pytest

from repro.obs.registry import DEFAULT_BUCKET_EDGES, NULL_METRICS, MetricsRegistry


class TestCounters:
    def test_inc_accumulates(self):
        m = MetricsRegistry()
        m.inc("x")
        m.inc("x", 2.5)
        assert m.counter_value("x") == 3.5

    def test_labels_are_separate_series(self):
        m = MetricsRegistry()
        m.inc("bytes", 10, src=0, dst=1)
        m.inc("bytes", 20, src=1, dst=0)
        m.inc("bytes", 5, src=0, dst=1)
        assert m.counter_value("bytes", src=0, dst=1) == 15
        assert m.counter_value("bytes", src=1, dst=0) == 20
        assert m.counter_total("bytes") == 35

    def test_label_order_does_not_matter(self):
        m = MetricsRegistry()
        m.inc("x", 1, a=1, b=2)
        m.inc("x", 1, b=2, a=1)
        assert m.counter_value("x", a=1, b=2) == 2

    def test_missing_counter_reads_zero(self):
        m = MetricsRegistry()
        assert m.counter_value("never") == 0.0
        assert m.counter_total("never") == 0.0


class TestGauges:
    def test_gauge_set_overwrites(self):
        m = MetricsRegistry()
        m.gauge_set("depth", 5)
        m.gauge_set("depth", 2)
        assert m.gauge_value("depth") == 2

    def test_gauge_max_keeps_high_water_mark(self):
        m = MetricsRegistry()
        m.gauge_max("hwm", 3, node=0)
        m.gauge_max("hwm", 9, node=0)
        m.gauge_max("hwm", 4, node=0)
        assert m.gauge_value("hwm", node=0) == 9


class TestHistograms:
    def test_observe_tracks_count_sum_min_max(self):
        m = MetricsRegistry()
        for v in (1.0, 10.0, 100.0):
            m.observe("lat", v)
        snap = m.snapshot()["histograms"]["lat"]
        assert snap["count"] == 3
        assert snap["sum"] == 111.0
        assert snap["min"] == 1.0
        assert snap["max"] == 100.0

    def test_bucket_assignment_uses_le_edges(self):
        m = MetricsRegistry()
        m.observe("v", 0.5)
        m.observe("v", 1.0)  # on an edge: counted in that edge's bucket
        m.observe("v", 5.0)
        m.observe("v", 1e13)
        buckets = m.snapshot()["histograms"]["v"]["buckets"]
        assert buckets == {"1.0": 2, "10.0": 1, "inf": 1}

    def test_edges_are_not_a_setting(self):
        m = MetricsRegistry()
        with pytest.raises(TypeError):
            m.observe("v", 0.5, edges=(1.0,))
        with pytest.raises(TypeError):
            m.histogram("v", edges=(1.0,))

    def test_default_edges_span_nanoseconds_to_terascale(self):
        assert DEFAULT_BUCKET_EDGES[0] == pytest.approx(1e-9)
        assert DEFAULT_BUCKET_EDGES[-1] == pytest.approx(1e12)


class TestDisabled:
    def test_disabled_registry_records_nothing(self):
        m = MetricsRegistry(enabled=False)
        m.inc("a")
        m.gauge_set("b", 1)
        m.gauge_max("c", 2)
        m.observe("d", 3.0)
        with m.phase("p"):
            pass
        assert len(m) == 0
        assert m.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "phases": {},
        }

    def test_null_metrics_is_disabled(self):
        assert NULL_METRICS.enabled is False
        NULL_METRICS.inc("x")
        assert len(NULL_METRICS) == 0


class TestPhases:
    def test_phase_times_on_injected_clock(self):
        t = [0.0]
        m = MetricsRegistry(clock=lambda: t[0])
        m.phase_start("execution")
        t[0] = 2.5
        m.phase_end("execution")
        phases = m.snapshot()["phases"]
        assert phases["execution"] == {"virtual_s": 2.5, "count": 1}

    def test_phase_context_manager_accumulates(self):
        t = [0.0]
        m = MetricsRegistry(clock=lambda: t[0])
        for dt in (1.0, 3.0):
            with m.phase("build"):
                t[0] += dt
        assert m.snapshot()["phases"]["build"] == {"virtual_s": 4.0, "count": 2}

    def test_double_start_raises(self):
        m = MetricsRegistry()
        m.phase_start("p")
        with pytest.raises(ValueError):
            m.phase_start("p")

    def test_end_without_start_raises(self):
        m = MetricsRegistry()
        with pytest.raises(ValueError):
            m.phase_end("p")


class TestSnapshot:
    def test_snapshot_keys_sorted_and_rendered(self):
        m = MetricsRegistry()
        m.inc("z.last")
        m.inc("a.first", 2, node=1, dir="tx")
        snap = m.snapshot()
        keys = list(snap["counters"])
        assert keys == sorted(keys)
        assert "a.first{dir=tx,node=1}" in keys

    def test_snapshot_identical_for_identical_sequences(self):
        def build():
            m = MetricsRegistry()
            m.inc("c", 1, k="v")
            m.observe("h", 0.25)
            m.gauge_max("g", 7)
            return m.snapshot()

        assert build() == build()


class TestBoundCells:
    """The handle API: bind a series once, emit to the cell."""

    def test_permuted_labels_bind_the_same_cell(self):
        m = MetricsRegistry()
        assert m.counter("x", a=1, b=2) is m.counter("x", b=2, a=1)
        assert m.gauge("g", a=1, b=2) is m.gauge("g", b=2, a=1)
        assert m.histogram("h", a=1, b=2) is m.histogram("h", b=2, a=1)
        assert m.counter("x", a=1) is not m.counter("x", a=2)

    def test_by_name_and_held_cell_feed_one_series(self):
        m = MetricsRegistry()
        cell = m.counter("x", node=3)
        cell.value += 2
        m.inc("x", 1.5, node=3)
        cell.value += 1
        assert m.counter_value("x", node=3) == 4.5
        assert m.snapshot()["counters"] == {"x{node=3}": 4.5}
        high = m.gauge("g")
        m.gauge_max("g", 4)
        if 7 > high.value:
            high.value = 7
        m.gauge_max("g", 5)
        assert m.gauge_value("g") == 7
        histogram = m.histogram("h")
        histogram.observe(1.0)
        m.observe("h", 3.0)
        assert m.snapshot()["histograms"]["h"]["count"] == 2

    def test_bound_but_untouched_series_are_absent(self):
        m = MetricsRegistry()
        m.counter("c", k="v")
        m.gauge("g")
        m.histogram("h")
        m.counters("f", "cls")
        assert len(m) == 0
        assert m.counter_value("c", k="v") == 0.0
        assert m.gauge_value("g") is None
        assert m.snapshot() == MetricsRegistry().snapshot()

    def test_zero_emit_counts_and_values_stay_floats(self):
        m = MetricsRegistry()
        zero = m.counter("bytes")
        zero.value += 0.0
        count = m.counter("n")
        count.value += 3  # an int, as len(...) would be
        snap = m.snapshot()["counters"]
        assert snap == {"bytes": 0.0, "n": 3.0}
        assert all(type(v) is float for v in snap.values())
        assert len(m) == 2

    def test_family_binds_raw_label_values_at_first_use(self):
        m = MetricsRegistry()
        links = m.counters("link.bytes", "src", "dst")
        links[0, 1].value += 8.0
        links[0, 1].value += 8.0
        per_class = m.counters("executed", "cls")
        per_class["GEMM"].value += 1.0
        marks = m.gauges("hwm", "node", "dir")
        assert marks[2, "tx"] is m.gauge("hwm", node=2, dir="tx")
        assert links[0, 1] is m.counter("link.bytes", dst=1, src=0)
        assert m.snapshot()["counters"] == {
            "executed{cls=GEMM}": 1.0,
            "link.bytes{dst=1,src=0}": 16.0,
        }

    def test_rebinding_in_a_second_level_accumulates(self):
        m = MetricsRegistry()

        class Level:  # stands for a runtime that is rebuilt every level
            def __init__(self):
                self.executed = m.counter("tasks")
                self.durations = m.histogram("duration_s")

        for _ in range(2):
            level = Level()
            level.executed.value += 5.0
            level.durations.observe(0.5)
        assert m.counter_value("tasks") == 10.0
        assert m.snapshot()["histograms"]["duration_s"]["count"] == 2

    def test_disabled_registry_shares_one_inert_cell_and_stores_nothing(self):
        m = MetricsRegistry(enabled=False)
        cells = {id(m.counter("c", i=i)) for i in range(10_000)}
        cells |= {id(m.gauge("g", i=i)) for i in range(10_000)}
        assert len(cells) == 1
        assert len({id(m.histogram("h", i=i)) for i in range(10_000)}) == 1
        assert m.counter("c") is NULL_METRICS.counter("other")
        assert len(m) == 0
        assert not (m._counters or m._gauges or m._histograms)

    def test_empty_histogram_is_never_rendered(self):
        import json

        m = MetricsRegistry()
        m.histogram("h")
        m.inc("c")
        assert m.snapshot()["histograms"] == {}
        assert "Infinity" not in json.dumps(m.snapshot())

    def test_null_metrics_cannot_be_enabled(self):
        with pytest.raises(AttributeError, match="NULL_METRICS"):
            NULL_METRICS.enabled = True
        assert NULL_METRICS.enabled is False

    def test_network_outside_a_cluster_leaves_null_metrics_empty(self):
        from repro.sim.cost import MachineModel
        from repro.sim.engine import Engine
        from repro.sim.network import Network
        from repro.sim.node import Node
        from repro.sim.trace import TraceRecorder

        engine, machine = Engine(), MachineModel()
        network = Network(engine, machine)
        assert network.metrics is NULL_METRICS
        for i in range(2):
            network.register(Node(engine, i, machine, cores=1, trace=TraceRecorder()))
        network.node(1).serve("main", lambda message: (0.0, 0.0), lambda message: None)
        network.send(0, 1, 64.0, "payload", inbox="main")
        engine.run()
        assert network.remote_messages == 1
        assert len(NULL_METRICS) == 0
        assert not (NULL_METRICS._counters or NULL_METRICS._gauges)
        assert not NULL_METRICS._owners  # the network's counts are not read
        assert not network._m_link_bytes  # no per-link cell bound while off


class _Counts:
    """Stands in for a component that keeps its own counts."""

    def __init__(self, events=0, total=0.0):
        self.events = events
        self.total = total


class TestCollectedCounts:
    """The collect API: the registry reads counts an owner already keeps."""

    SERIES = {"n": "events", "bytes": ("total", "events")}

    def test_an_owner_with_a_zero_guard_reports_nothing(self):
        m = MetricsRegistry()
        owner = _Counts(events=0, total=5.0)
        m.collect(owner, self.SERIES)
        assert len(m) == 0
        assert m.snapshot() == MetricsRegistry().snapshot()
        owner.events = 2
        assert m.snapshot()["counters"] == {"bytes": 5.0, "n": 2.0}

    def test_a_zero_valued_event_still_reports_a_float_zero(self):
        m = MetricsRegistry()
        m.collect(_Counts(events=1, total=0), self.SERIES)
        snap = m.snapshot()["counters"]
        assert snap == {"bytes": 0.0, "n": 1.0}
        assert all(type(v) is float for v in snap.values())
        assert m.counter_value("bytes") == 0.0 and len(m) == 2

    def test_a_guard_may_be_a_function_of_the_owner(self):
        m = MetricsRegistry()
        owner = _Counts(events=3, total=0.0)
        m.collect(owner, {"bytes": ("total", lambda o: o.events - 3)})
        assert m.snapshot()["counters"] == {}
        owner.events = 4
        assert m.snapshot()["counters"] == {"bytes": 0.0}

    def test_two_owners_on_one_series_sum(self):
        m = MetricsRegistry()
        m.collect(_Counts(events=2, total=1.5), self.SERIES)
        m.collect(_Counts(events=0, total=9.0), self.SERIES)  # guard 0: no 9.0
        m.collect(_Counts(events=1, total=2.5), self.SERIES)
        m.inc("n", 4.0, node=1)  # another series of the same name
        assert m.counter_value("n") == 3.0
        assert m.counter_value("bytes") == 4.0
        assert m.counter_total("n") == 7.0

    def test_a_released_owner_keeps_its_totals_and_is_freed(self, no_collector):
        import weakref

        m = MetricsRegistry()
        for level in range(2):  # a runtime rebuilt every level
            owner = _Counts(events=2, total=1.0)
            m.collect(owner, self.SERIES)
            m.release(owner)
            m.release(owner)  # a second release folds nothing
            gone = weakref.ref(owner)
            del owner
            assert gone() is None
        assert not m._owners
        assert m.snapshot()["counters"] == {"bytes": 2.0, "n": 4.0}
        idle = _Counts()
        m.collect(idle, self.SERIES)
        m.release(idle)  # a zero guard folds no series in
        assert m.snapshot()["counters"] == {"bytes": 2.0, "n": 4.0}

    def test_a_disabled_registry_holds_no_owner(self):
        for m in (MetricsRegistry(enabled=False), NULL_METRICS):
            owner = _Counts(events=1, total=1.0)
            m.collect(owner, self.SERIES)
            m.release(owner)
            assert not m._owners and not m._counters
            assert len(m) == 0
