"""Tests for DAG critical-path analysis and the ASCII series chart."""

import pytest

from repro.analysis.ascii_chart import render_series_chart
from repro.analysis.dag import profile_task_graph, task_graph_to_networkx
from repro.core.api import RunConfig, build, run
from repro.core.inspector import inspect_subroutine
from repro.core.ptg_build import build_ccsd_ptg
from repro.core.variants import V1, V5
from repro.sim.cluster import DataMode


def make_graph(variant, scale="tiny"):
    workload = build(f"t2_7:{scale}", RunConfig(n_nodes=4, data_mode=DataMode.SYNTH))
    cluster = workload.cluster
    md = inspect_subroutine(workload.subroutine, cluster, variant)
    ptg = build_ccsd_ptg(variant, md)
    return ptg.instantiate(md, cluster.n_nodes), cluster.machine, workload


class TestDagAnalysis:
    def test_networkx_export_is_a_dag(self):
        import networkx as nx

        graph, machine, _ = make_graph(V5)
        dag = task_graph_to_networkx(graph, machine)
        assert nx.is_directed_acyclic_graph(dag)
        assert dag.number_of_nodes() == len(graph)
        assert all(data["cost"] >= 0 for _, data in dag.nodes(data=True))

    def test_profile_invariants(self):
        graph, machine, _ = make_graph(V5)
        profile = profile_task_graph(graph, machine)
        assert profile.n_tasks == len(graph)
        assert profile.critical_path <= profile.total_work
        assert profile.critical_length >= 1
        assert profile.average_parallelism >= 1.0

    def test_v5_dag_is_much_wider_than_v1(self):
        """Section IV-A: segmenting the chains 'increases available
        parallelism' — structurally visible as work/span. Needs the
        small system: tiny's 4-GEMM chains are too short for the
        chain-serialization span to dominate."""
        v1_profile = profile_task_graph(*make_graph(V1, "small")[:2])
        v5_profile = profile_task_graph(*make_graph(V5, "small")[:2])
        # same work order of magnitude...
        assert v5_profile.total_work == pytest.approx(
            v1_profile.total_work, rel=0.35
        )
        # ...but a much shorter critical path
        assert v5_profile.critical_path < 0.5 * v1_profile.critical_path
        assert v5_profile.average_parallelism > 2 * v1_profile.average_parallelism

    def test_span_lower_bounds_simulated_time(self):
        config = RunConfig(n_nodes=4, cores_per_node=2, data_mode=DataMode.SYNTH)
        workload = build("t2_7:tiny", config)
        cluster = workload.cluster
        md = inspect_subroutine(workload.subroutine, cluster, V5)
        ptg = build_ccsd_ptg(V5, md)
        profile = profile_task_graph(
            ptg.instantiate(md, cluster.n_nodes), cluster.machine
        )
        result = run(workload, variant=V5, config=config)
        # the simulated execution includes transport/overheads the
        # profile ignores, so the span must lower-bound it
        assert result.execution_time >= 0.9 * profile.critical_path


class TestAsciiChart:
    SERIES = {
        "original": {1: 91.4, 3: 38.3, 7: 28.3, 15: 28.7},
        "v5": {1: 85.8, 3: 28.7, 7: 12.5, 15: 8.7},
    }

    def test_renders_markers_and_legend(self):
        chart = render_series_chart(self.SERIES, [1, 3, 7, 15], title="fig9")
        assert "fig9" in chart
        assert "o=original" in chart and "x=v5" in chart
        assert "cores/node" in chart
        assert "o" in chart and "x" in chart

    def test_y_axis_spans_data(self):
        chart = render_series_chart(self.SERIES, [1, 3, 7, 15])
        assert "91.4" in chart
        assert "0.0" in chart

    def test_empty_series(self):
        assert "(no data)" in render_series_chart({}, [1, 2], title="t")

    def test_missing_x_points_skipped(self):
        series = {"a": {1: 5.0}}
        chart = render_series_chart(series, [1, 2, 3])
        assert "a" in chart

    @pytest.mark.parametrize("label", ["x_label", "y_label"])
    def test_axis_labels_are_not_settings(self, label):
        with pytest.raises(TypeError):
            render_series_chart(self.SERIES, [1, 3], **{label: "s"})


class TestGanttZoom:
    def test_zoom_window_restricts_axis(self):
        from repro.analysis.gantt import render_gantt
        from repro.sim.trace import TaskCategory, TraceRecorder

        trace = TraceRecorder()
        trace.record(0, 0, TaskCategory.GEMM, "early", 0.0, 1.0)
        trace.record(0, 0, TaskCategory.SORT, "late", 9.0, 10.0)
        zoomed = render_gantt(trace, width=20, t_min=8.5, t_max=10.0)
        assert "8.5" in zoomed
        row = [l for l in zoomed.splitlines() if l.startswith("n000")][0]
        glyphs = row.split("|")[1]
        assert "s" in glyphs and "G" not in glyphs
