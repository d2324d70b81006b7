"""Tests for the experiment drivers (at reduced scales for speed)."""

import pytest

from repro.experiments.ablations import (
    compare_load_balancing,
    sweep_priority_offsets,
    sweep_segment_height,
    sweep_write_organization,
)
from repro.experiments.calibration import (
    CORE_COUNTS,
    PAPER_MACHINE,
    PAPER_NODES,
    bench_scale,
    make_cluster,
    make_workload,
)
from repro.experiments.equivalence import run_equivalence
from repro.experiments.fig9 import fig9_shape_checks, run_fig9, run_point
from repro.experiments.traces import comm_vs_gemm_share, run_fig10_11, run_fig12_13
from repro.sim.cost import MachineModel


class TestCalibration:
    def test_paper_machine_matches_model_defaults(self):
        """The pinned calibration and the MachineModel defaults must not
        drift apart silently."""
        assert PAPER_MACHINE == MachineModel()

    def test_paper_constants(self):
        assert PAPER_NODES == 32
        assert CORE_COUNTS == (1, 3, 7, 11, 15)

    def test_bench_scale_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert bench_scale() == "paper"
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert bench_scale() == "tiny"

    def test_make_cluster_and_workload(self):
        cluster = make_cluster(2, n_nodes=4)
        workload = make_workload(cluster, scale="tiny")
        assert workload.subroutine.n_chains > 0
        assert cluster.machine is PAPER_MACHINE


class TestFig9Small:
    """The sweep machinery at 'tiny' scale on 4 nodes."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_fig9(scale="tiny", core_counts=(1, 2), n_nodes=4)

    def test_all_cells_present_and_positive(self, result):
        assert set(result.times) == {"original", "v1", "v2", "v3", "v4", "v5"}
        for series in result.times.values():
            assert set(series) == {1, 2}
            assert all(t > 0 for t in series.values())

    def test_more_cores_help_everyone_at_tiny_scale(self, result):
        for code, series in result.times.items():
            assert series[2] < series[1], code

    def test_table_renders(self, result):
        table = result.table()
        assert "original" in table and "v5" in table

    def test_best_original(self, result):
        cores, time = result.best_original()
        assert cores == 2
        assert time == result.times["original"][2]

    def test_run_point_deterministic(self):
        a = run_point("v4", 2, scale="tiny", n_nodes=4)
        b = run_point("v4", 2, scale="tiny", n_nodes=4)
        assert a == b

    def test_shape_checks_report_names(self):
        # shape checks need the full core grid; build a synthetic result
        from repro.experiments.fig9 import Fig9Result

        times = {
            "original": {1: 91.4, 3: 38.3, 7: 28.3, 11: 27.9, 15: 28.7},
            "v1": {1: 82.2, 3: 29.5, 7: 17.4, 11: 14.1, 15: 13.1},
            "v2": {1: 85.6, 3: 30.6, 7: 16.2, 11: 12.2, 15: 10.4},
            "v3": {1: 85.6, 3: 28.6, 7: 12.6, 11: 10.0, 15: 8.67},
            "v4": {1: 85.6, 3: 28.6, 7: 12.6, 11: 10.0, 15: 8.66},
            "v5": {1: 85.8, 3: 28.7, 7: 12.5, 11: 10.0, 15: 8.66},
        }
        result = Fig9Result(times, (1, 3, 7, 11, 15), "paper", 32)
        checks = fig9_shape_checks(result)
        assert len(checks) == 10
        failed = [c for c in checks if not c.passed]
        assert not failed, [f"{c.name}: {c.detail}" for c in failed]
        assert "2.1x" in result.summary_table()


class TestTraceExperiments:
    def test_fig10_11_priorities_reduce_startup_idle(self):
        # the network-flood contrast needs a non-trivial message load,
        # so this test runs at 'small' scale; the benchmark asserts the
        # same at paper scale
        v4, v2 = run_fig10_11(scale="small", n_nodes=8)
        assert v2.startup_idle > v4.startup_idle
        assert v2.execution_time >= v4.execution_time * 0.98
        assert "trace of v2" in v2.name

    def test_fig12_13_original_has_no_overlap_and_heavy_comm(self):
        original = run_fig12_13(scale="tiny", n_nodes=4)
        # within-thread overlap is structurally zero for blocking code —
        # exactly the paper's Figure 12 point
        assert original.overlap == 0.0
        assert original.comm_fraction > 0.05
        assert comm_vs_gemm_share(original) > 0.1
        gantt = original.gantt()
        assert "G" in gantt and "c" in gantt

    def test_trace_has_events(self):
        original = run_fig12_13(scale="tiny", n_nodes=4)
        assert len(original.trace) > 0


class TestEquivalence:
    def test_all_implementations_agree(self):
        result = run_equivalence(scale="tiny", n_nodes=4)
        assert set(result.energies) == {
            "reference",
            "original",
            "v1",
            "v2",
            "v3",
            "v4",
            "v5",
        }
        assert result.max_relative_spread < 1e-13
        assert result.agrees_to_digits() >= 13.0


class TestAblations:
    def test_priority_offset_sweep_returns_all_offsets(self):
        times = sweep_priority_offsets(offsets=(0, 5), scale="tiny", cores_per_node=2)
        assert set(times) == {0, 5}
        assert all(t > 0 for t in times.values())

    def test_segment_height_sweep(self):
        times = sweep_segment_height(heights=(1, None), scale="tiny", cores_per_node=2)
        assert set(times) == {"height-1", "full-chain"}

    def test_write_organization_sweep(self):
        times = sweep_write_organization(
            mutex_costs=(1e-6,), scale="tiny", cores_per_node=2
        )
        (cell,) = times.values()
        assert set(cell) == {"single-write (v5)", "parallel-write"}

    def test_load_balancing_comparison(self):
        times = compare_load_balancing(scale="tiny", cores_per_node=2, n_nodes=4)
        assert len(times) == 3
        assert all(t > 0 for t in times.values())
