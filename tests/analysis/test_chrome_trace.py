"""Tests for the Chrome trace-event export."""

import json

import pytest

from repro.analysis.chrome_trace import to_chrome_trace, write_chrome_trace
from repro.sim.trace import TaskCategory, TraceRecorder


def make_trace():
    trace = TraceRecorder()
    trace.record(0, 0, TaskCategory.GEMM, "GEMM(0,0)", 0.0, 1.5, {"chain": 0})
    trace.record(0, 1, TaskCategory.READ_A, "READ_A(0,0)", 0.2, 0.4)
    trace.record(1, 0, TaskCategory.WRITE, "WRITE_C(0,0)", 2.0, 2.5)
    return trace


class TestChromeTrace:
    def test_span_events_complete(self):
        doc = to_chrome_trace(make_trace())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 3
        gemm = next(e for e in spans if e["name"] == "GEMM(0,0)")
        assert gemm["pid"] == 0 and gemm["tid"] == 0
        assert gemm["ts"] == 0.0
        assert gemm["dur"] == 1.5e6  # seconds -> microseconds
        assert gemm["cat"] == "gemm"
        assert gemm["args"] == {"chain": 0}

    def test_process_metadata_per_node(self):
        doc = to_chrome_trace(make_trace())
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {m["pid"] for m in metas} == {0, 1}
        assert metas[0]["args"]["name"].startswith("node")

    def test_zero_duration_clamped_visible(self):
        trace = TraceRecorder()
        trace.record(0, 0, TaskCategory.NXTVAL, "NXTVAL#0", 1.0, 1.0)
        doc = to_chrome_trace(trace)
        span = [e for e in doc["traceEvents"] if e["ph"] == "X"][0]
        assert span["dur"] > 0

    def test_write_roundtrip(self, tmp_path):
        path = write_chrome_trace(make_trace(), str(tmp_path / "trace.json"))
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) == 5

    def test_empty_trace(self):
        doc = to_chrome_trace(TraceRecorder())
        assert doc["traceEvents"] == []

    def test_timestamps_are_virtual_microseconds(self):
        doc = to_chrome_trace(make_trace())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["ts"] for e in spans] == [0.0, 0.2 / 1.0e-6, 2.0 / 1.0e-6]
        with pytest.raises(TypeError):
            to_chrome_trace(make_trace(), time_unit=1.0)
