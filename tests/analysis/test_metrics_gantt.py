"""Tests for trace metrics, Gantt rendering, and report tables."""

import pytest

from repro.analysis.gantt import render_gantt
from repro.analysis.metrics import (
    busy_fraction,
    category_time_share,
    comm_compute_overlap,
    idle_gaps,
    merge_intervals,
    startup_idle_fraction,
    thread_utilization,
)
from repro.analysis.report import format_fig9_table, format_table
from repro.sim.trace import TaskCategory, TraceRecorder


def make_trace(spans):
    """spans: iterable of (node, thread, category, t0, t1)."""
    trace = TraceRecorder()
    for node, thread, category, t0, t1 in spans:
        trace.record(node, thread, category, f"{category.value}@{t0}", t0, t1)
    return trace


class TestMergeIntervals:
    def test_disjoint(self):
        assert merge_intervals([(0, 1), (2, 3)]) == [(0, 1), (2, 3)]

    def test_overlapping_and_nested(self):
        assert merge_intervals([(0, 5), (1, 2), (4, 7)]) == [(0, 7)]

    def test_touching_merge(self):
        assert merge_intervals([(0, 1), (1, 2)]) == [(0, 2)]

    def test_empty_and_degenerate(self):
        assert merge_intervals([]) == []
        assert merge_intervals([(1, 1)]) == []


class TestUtilization:
    def test_fully_busy_thread(self):
        trace = make_trace([(0, 0, TaskCategory.GEMM, 0.0, 10.0)])
        assert thread_utilization(trace) == {(0, 0): 1.0}
        assert busy_fraction(trace) == 1.0

    def test_half_busy_thread(self):
        trace = make_trace(
            [
                (0, 0, TaskCategory.GEMM, 0.0, 5.0),
                (0, 1, TaskCategory.GEMM, 0.0, 10.0),
            ]
        )
        util = thread_utilization(trace)
        assert util[(0, 0)] == pytest.approx(0.5)
        assert util[(0, 1)] == pytest.approx(1.0)
        assert busy_fraction(trace) == pytest.approx(0.75)

    def test_empty_trace(self):
        assert thread_utilization(TraceRecorder()) == {}
        assert busy_fraction(TraceRecorder()) == 0.0

    @pytest.mark.parametrize(
        "metric", [thread_utilization, busy_fraction], ids=lambda f: f.__name__
    )
    def test_the_horizon_is_the_makespan(self, metric):
        trace = make_trace([(0, 0, TaskCategory.GEMM, 0.0, 2.0)])
        with pytest.raises(TypeError, match="horizon"):
            metric(trace, horizon=4.0)

    def test_idle_gaps(self):
        trace = make_trace(
            [
                (0, 0, TaskCategory.GEMM, 2.0, 4.0),
                (0, 0, TaskCategory.GEMM, 6.0, 8.0),
                (0, 1, TaskCategory.GEMM, 0.0, 10.0),
            ]
        )
        assert idle_gaps(trace, (0, 0)) == [(0.0, 2.0), (4.0, 6.0), (8.0, 10.0)]
        assert idle_gaps(trace, (0, 1)) == []


class TestStartupIdle:
    def test_immediate_compute_is_zero(self):
        trace = make_trace([(0, 0, TaskCategory.GEMM, 0.0, 10.0)])
        assert startup_idle_fraction(trace) == 0.0

    def test_late_compute_measured(self):
        trace = make_trace(
            [
                (0, 0, TaskCategory.READ_A, 0.0, 1.0),
                (0, 0, TaskCategory.GEMM, 8.0, 10.0),
            ]
        )
        assert startup_idle_fraction(trace) == pytest.approx(0.8)

    def test_thread_without_compute_counts_fully_idle(self):
        trace = make_trace(
            [
                (0, 0, TaskCategory.GEMM, 0.0, 10.0),
                (0, 1, TaskCategory.READ_A, 0.0, 1.0),
            ]
        )
        assert startup_idle_fraction(trace) == pytest.approx(0.5)

    def test_compute_is_a_gemm(self):
        trace = make_trace(
            [
                (0, 0, TaskCategory.SORT, 0.0, 1.0),
                (0, 0, TaskCategory.GEMM, 5.0, 10.0),
            ]
        )
        assert startup_idle_fraction(trace) == pytest.approx(0.5)
        with pytest.raises(TypeError, match="compute_categories"):
            startup_idle_fraction(trace, compute_categories={TaskCategory.SORT})


class TestOverlap:
    def test_blocking_serial_rank_has_zero_overlap(self):
        # one thread alternating get/gemm: nothing to overlap with
        trace = make_trace(
            [
                (0, 0, TaskCategory.COMM, 0.0, 1.0),
                (0, 0, TaskCategory.GEMM, 1.0, 2.0),
                (0, 0, TaskCategory.COMM, 2.0, 3.0),
                (0, 0, TaskCategory.GEMM, 3.0, 4.0),
            ]
        )
        assert comm_compute_overlap(trace) == 0.0

    def test_within_thread_overlap_is_zero_for_disjoint_spans(self):
        trace = make_trace(
            [
                (0, 0, TaskCategory.COMM, 0.0, 2.0),
                (0, 1, TaskCategory.GEMM, 1.0, 3.0),
            ]
        )
        # thread 0's comm does not overlap its own compute, and another
        # thread's compute is not a second view of it
        assert comm_compute_overlap(trace) == 0.0
        with pytest.raises(TypeError, match="across_threads"):
            comm_compute_overlap(trace, across_threads=True)
        # nor is one node's view a keyword: the overlap is the machine's
        with pytest.raises(TypeError, match="node"):
            comm_compute_overlap(trace, node=0)

    def test_other_node_compute_does_not_count(self):
        trace = make_trace(
            [
                (0, 0, TaskCategory.COMM, 0.0, 2.0),
                (1, 0, TaskCategory.GEMM, 0.0, 2.0),
            ]
        )
        # the same thread index on another node is another thread
        assert comm_compute_overlap(trace) == 0.0

    def test_no_comm_returns_zero(self):
        trace = make_trace([(0, 0, TaskCategory.GEMM, 0.0, 1.0)])
        assert comm_compute_overlap(trace) == 0.0


class TestCategoryShare:
    def test_shares_sum_to_one(self):
        trace = make_trace(
            [
                (0, 0, TaskCategory.GEMM, 0.0, 3.0),
                (0, 0, TaskCategory.COMM, 3.0, 4.0),
            ]
        )
        shares = category_time_share(trace)
        assert shares[TaskCategory.GEMM] == pytest.approx(0.75)
        assert shares[TaskCategory.COMM] == pytest.approx(0.25)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_empty(self):
        assert category_time_share(TraceRecorder()) == {}


class TestGantt:
    def test_renders_rows_and_legend(self):
        trace = make_trace(
            [
                (0, 0, TaskCategory.GEMM, 0.0, 5.0),
                (0, 1, TaskCategory.COMM, 5.0, 10.0),
            ]
        )
        art = render_gantt(trace, width=20, title="demo")
        assert "demo" in art
        assert "n000.t00" in art and "n000.t01" in art
        assert "G" in art and "c" in art
        assert "legend:" in art

    def test_busiest_category_wins_cell(self):
        trace = make_trace(
            [
                (0, 0, TaskCategory.GEMM, 0.0, 9.0),
                (0, 0, TaskCategory.COMM, 9.0, 10.0),
            ]
        )
        art = render_gantt(trace, width=10)
        row = [l for l in art.splitlines() if l.startswith("n000")][0]
        glyphs = row.split("|")[1]
        assert glyphs.count("G") == 9
        assert glyphs.count("c") == 1

    def test_empty_trace(self):
        assert "(empty trace)" in render_gantt(TraceRecorder(), title="t")

    def test_max_rows_limits_output(self):
        trace = make_trace(
            [(n, 0, TaskCategory.GEMM, 0.0, 1.0) for n in range(10)]
        )
        art = render_gantt(trace, width=10, max_rows=3)
        assert sum(1 for l in art.splitlines() if l.startswith("n0")) == 3


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["x", "1"], ["yy", "22"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_fig9_table_shape(self):
        times = {"orig": {1: 40.0, 7: 16.0}, "v5": {1: 41.0, 15: 7.5}}
        text = format_fig9_table(times, [1, 7, 15])
        assert "orig" in text and "v5" in text
        assert "40.000" in text and "16.000" in text
        assert "-" in text  # missing cell
