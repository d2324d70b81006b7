"""Tests of the runtime-agnostic TraceRecorder."""

import pytest

from repro.sim.trace import TaskCategory, TraceRecorder


def populated() -> TraceRecorder:
    trace = TraceRecorder()
    trace.record(0, 0, TaskCategory.GEMM, "GEMM#1", 0.0, 1.0)
    trace.record(0, 1, TaskCategory.COMM, "GET#1", 0.5, 2.0, meta={"bytes": 4096})
    trace.record(1, 0, TaskCategory.GEMM, "GEMM#2", 1.0, 3.0)
    trace.record(1, 0, TaskCategory.WRITE, "WRITE#1", 3.0, 3.5)
    return trace


class TestRoundTrip:
    """A trace leaves a run as a Chrome trace or a RunReport; it has no
    JSON form of its own to read back."""

    def test_json_round_trip_preserves_events_and_meta(self):
        trace = populated()
        with pytest.raises(AttributeError):
            trace.to_json()
        assert trace.events[1].meta == {"bytes": 4096}

    def test_round_trip_preserves_derived_stats(self):
        with pytest.raises(AttributeError):
            TraceRecorder.from_json("[]")
        trace = populated()
        assert trace.makespan() == 3.5
        assert trace.total_time_by_category()[TaskCategory.GEMM] == 3.0


class TestDisabled:
    def test_disabled_recorder_is_a_no_op(self):
        trace = TraceRecorder(enabled=False)
        trace.record(0, 0, TaskCategory.GEMM, "GEMM#1", 0.0, 1.0)
        assert len(trace) == 0
        assert trace.events == []
        assert trace.makespan() == 0.0

    def test_negative_span_rejected_when_enabled(self):
        trace = TraceRecorder()
        with pytest.raises(ValueError):
            trace.record(0, 0, TaskCategory.GEMM, "bad", 2.0, 1.0)


class TestFiltered:
    def test_filter_by_category(self):
        gemms = populated().filtered(category=TaskCategory.GEMM)
        assert [e.label for e in gemms] == ["GEMM#1", "GEMM#2"]

    def test_filter_by_node(self):
        assert len(populated().filtered(node=1)) == 2

    def test_combined_criteria(self):
        trace = populated()
        hits = trace.filtered(
            category=TaskCategory.GEMM,
            node=1,
            predicate=lambda e: e.duration > 1.0,
        )
        assert [e.label for e in hits] == ["GEMM#2"]
        assert trace.filtered(
            category=TaskCategory.COMM, node=1
        ) == []  # COMM only happened on node 0
