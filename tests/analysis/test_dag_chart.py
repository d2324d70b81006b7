"""Tests for DAG critical-path analysis and the ASCII series chart."""

import pytest

from repro.analysis.ascii_chart import render_series_chart
from repro.analysis.dag import profile_task_graph
from repro.core.api import RunConfig, build, run
from repro.core.inspector import inspect_subroutine
from repro.core.ptg_build import build_ccsd_ptg
from repro.core.variants import V1, V5
from repro.parsec.ptg import PTG
from repro.parsec.taskclass import Dep, Flow, FlowMode, TaskClass
from repro.sim.cluster import DataMode
from repro.sim.cost import MachineModel
from repro.util.errors import DataflowError


def make_graph(variant, scale="tiny"):
    workload = build(f"t2_7:{scale}", RunConfig(n_nodes=4, data_mode=DataMode.SYNTH))
    cluster = workload.cluster
    md = inspect_subroutine(workload.subroutine, cluster, variant)
    ptg = build_ccsd_ptg(variant, md)
    return ptg.instantiate(md, cluster.n_nodes), cluster.machine, workload


def other_class(name, domain, outputs=()):
    """An ``OTHER`` class (it costs the per-task overhead) whose one flow
    feeds ``outputs``; a profile never runs its body."""
    return TaskClass(
        name=name,
        params=("i",) * len(domain[0]),
        domain=lambda md: domain,
        placement=lambda p, md: 0,
        run=None,
        flows=[Flow("X", FlowMode.RW, lambda p, md: 1, outputs=list(outputs))],
    )


def diamond_ptg():
    """SRC -> MID(0), MID(1) -> SINK: four tasks, three of them on every
    longest path."""
    ptg = PTG("diamond")
    to_mid = [Dep("MID", lambda p, md, i=i: (i,), "X") for i in (0, 1)]
    ptg.add(other_class("SRC", [()], to_mid))
    ptg.add(other_class("MID", [(0,), (1,)], [Dep("SINK", lambda p, md: (), "X")]))
    ptg.add(other_class("SINK", [()]))
    return ptg


class TestDagAnalysis:
    def test_profile_invariants(self):
        graph, machine, _ = make_graph(V5)
        profile = profile_task_graph(graph, machine)
        assert profile.n_tasks == len(graph)
        assert profile.critical_path <= profile.total_work
        assert profile.average_parallelism >= 1.0

    @pytest.mark.parametrize(
        "variant, n_tasks, n_edges, work, span",
        [
            (V1, 4014, 3888, "0x1.4a9432586b30ep-3", "0x1.700afbe119a0ap-11"),
            (V5, 4662, 4536, "0x1.66612c1693c5dp-3", "0x1.66b38bce114f4p-12"),
        ],
        ids=["v1", "v5"],
    )
    def test_small_profile_is_pinned(self, variant, n_tasks, n_edges, work, span):
        """The values the profile read when it still built a networkx
        DiGraph and took its longest path: the template walk keeps them
        bit for bit."""
        profile = profile_task_graph(*make_graph(variant, "small")[:2])
        assert (profile.n_tasks, profile.n_edges) == (n_tasks, n_edges)
        assert profile.total_work.hex() == work
        assert profile.critical_path.hex() == span

    def test_diamond_work_and_span(self):
        machine = MachineModel()
        overhead = machine.task_overhead_s
        profile = profile_task_graph(diamond_ptg().instantiate(None, 1), machine)
        assert (profile.n_tasks, profile.n_edges) == (4, 4)
        assert profile.total_work == pytest.approx(4 * overhead)
        assert profile.critical_path == pytest.approx(3 * overhead)
        assert profile.average_parallelism == pytest.approx(4 / 3)

    def test_a_cycle_is_refused(self):
        ptg = PTG("cycle")
        ptg.add(other_class("A", [()], [Dep("B", lambda p, md: (), "X")]))
        ptg.add(other_class("B", [()], [Dep("A", lambda p, md: (), "X")]))
        with pytest.raises(DataflowError, match="2 tasks never become ready"):
            profile_task_graph(ptg.instantiate(None, 1), MachineModel())

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
