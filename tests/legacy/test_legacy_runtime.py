"""Tests for the legacy CGP runtime: correctness, stealing, levels, traces."""

import numpy as np
import pytest

from repro.core.api import RunConfig, build
from repro.ga.runtime import GlobalArrays
from repro.legacy.runtime import LegacyConfig, LegacyRuntime
from repro.sim.cluster import Cluster, ClusterConfig, DataMode
from repro.sim.trace import TaskCategory
from repro.tce.reference import compute_reference, correlation_energy
from repro.util.errors import ConfigurationError, StallError


def run_legacy(
    n_nodes=4,
    cores_per_node=2,
    data_mode=DataMode.REAL,
    use_nxtval=True,
    seed=7,
):
    cluster = Cluster(
        ClusterConfig(n_nodes=n_nodes, cores_per_node=cores_per_node, data_mode=data_mode)
    )
    workload = build("t2_7:tiny", RunConfig(seed=seed), cluster=cluster)
    runtime = LegacyRuntime(cluster, workload.ga, LegacyConfig(use_nxtval=use_nxtval))
    result = runtime.execute_subroutine(workload.subroutine)
    return cluster, workload, result


class TestCorrectness:
    def test_output_matches_dense_reference(self):
        cluster, workload, result = run_legacy()
        expected = compute_reference(workload)
        np.testing.assert_allclose(
            workload.i2.flat_values(), expected, rtol=1e-12, atol=1e-12
        )

    def test_static_distribution_same_numerics(self):
        _, w_nxtval, _ = run_legacy(use_nxtval=True)
        _, w_static, _ = run_legacy(use_nxtval=False)
        np.testing.assert_allclose(
            w_nxtval.i2.flat_values(), w_static.i2.flat_values(), rtol=1e-13
        )

    def test_correlation_energy_matches_reference_exactly(self):
        cluster, workload, _ = run_legacy()
        expected = correlation_energy(compute_reference(workload))
        measured = correlation_energy(workload.i2.flat_values())
        assert measured == pytest.approx(expected, rel=1e-13)

    def test_every_chain_executed_exactly_once(self):
        _, workload, result = run_legacy()
        assert result.chains_executed == workload.subroutine.n_chains
        assert sum(result.chains_per_rank.values()) == workload.subroutine.n_chains


class TestScheduling:
    def test_rank_count_is_nodes_times_cores(self):
        _, _, result = run_legacy(n_nodes=3, cores_per_node=4)
        assert result.n_ranks == 12

    def test_nxtval_requests_exceed_chain_count(self):
        # every rank gets one extra "no more work" ticket
        cluster, workload, result = run_legacy()
        requests = cluster.metrics.snapshot()["counters"]["nxtval.requests"]
        assert requests == workload.subroutine.n_chains + result.n_ranks

    def test_static_mode_uses_no_nxtval(self):
        cluster, _, _ = run_legacy(use_nxtval=False)
        assert "nxtval.requests" not in cluster.metrics.snapshot()["counters"]

    def test_static_mode_rank_cyclic_assignment(self):
        _, workload, result = run_legacy(use_nxtval=False, n_nodes=2, cores_per_node=2)
        n_chains = workload.subroutine.n_chains
        counts = sorted(result.chains_per_rank.values())
        # rank-cyclic: every rank gets floor or ceil of the even share
        assert sum(counts) == n_chains
        assert counts[-1] - counts[0] <= 1

    def test_work_stealing_adapts_when_one_node_is_remote(self):
        """NXTVAL hands chains to whoever asks first; every rank gets some."""
        _, workload, result = run_legacy(n_nodes=4, cores_per_node=2)
        assert all(v > 0 for v in result.chains_per_rank.values())

    def test_empty_levels_rejected(self):
        cluster = Cluster(ClusterConfig(n_nodes=2))
        ga = GlobalArrays(cluster)
        runtime = LegacyRuntime(cluster, ga)
        with pytest.raises(ConfigurationError):
            runtime.execute([])

    def test_multiple_levels_are_barrier_separated(self):
        cluster = Cluster(ClusterConfig(n_nodes=2, cores_per_node=2))
        workload = build("t2_7:tiny", RunConfig(), cluster=cluster)
        chains = workload.subroutine.chains
        half = len(chains) // 2
        runtime = LegacyRuntime(cluster, workload.ga)
        runtime.execute([chains[:half], chains[half:]])
        # every level-2 GEMM starts after every level-1 GEMM ends
        barriers = cluster.trace.filtered(category=TaskCategory.BARRIER)
        assert len(barriers) == 2 * 4  # two levels x four ranks
        first_barrier_end = min(
            e.t_end for e in barriers
        )
        level1_ids = {c.chain_id for c in chains[:half]}
        gemms = cluster.trace.filtered(category=TaskCategory.GEMM)
        for g in gemms:
            if g.meta["chain"] not in level1_ids:
                assert g.t_start >= first_barrier_end - 1e-12


class TestBehaviour:
    def test_no_communication_computation_overlap_per_rank(self):
        """Blocking gets: a rank's COMM and GEMM spans never overlap."""
        cluster, _, _ = run_legacy()
        for (node, thread), spans in cluster.trace.by_thread().items():
            busy = sorted(
                (e.t_start, e.t_end) for e in spans if e.duration > 0
            )
            for (s1, e1), (s2, e2) in zip(busy, busy[1:]):
                assert s2 >= e1 - 1e-12  # strictly sequential

    def test_trace_contains_the_figure12_task_classes(self):
        cluster, _, _ = run_legacy()
        counts = cluster.trace.count_by_category()
        for category in (
            TaskCategory.GEMM,
            TaskCategory.COMM,
            TaskCategory.SORT,
            TaskCategory.WRITE,
            TaskCategory.DFILL,
            TaskCategory.NXTVAL,
            TaskCategory.BARRIER,
        ):
            assert counts.get(category, 0) > 0, f"missing {category}"

    def test_gemm_count_matches_workload(self):
        cluster, workload, _ = run_legacy()
        gemms = cluster.trace.filtered(category=TaskCategory.GEMM)
        assert len(gemms) == workload.subroutine.n_gemms

    def test_two_get_spans_per_gemm(self):
        cluster, workload, _ = run_legacy()
        comms = cluster.trace.filtered(category=TaskCategory.COMM)
        assert len(comms) == 2 * workload.subroutine.n_gemms

    def test_deterministic_execution_time(self):
        t1 = run_legacy()[2].execution_time
        t2 = run_legacy()[2].execution_time
        assert t1 == t2

    def test_more_cores_reduce_time_at_small_scale(self):
        t_small = run_legacy(cores_per_node=1, data_mode=DataMode.SYNTH)[2]
        t_large = run_legacy(cores_per_node=4, data_mode=DataMode.SYNTH)[2]
        assert t_large.execution_time < t_small.execution_time

    def test_synth_mode_runs_without_data(self):
        cluster, workload, result = run_legacy(data_mode=DataMode.SYNTH)
        assert result.execution_time > 0
        assert not workload.i2.array.holds_data


class TestStall:
    def test_quiescing_before_done_raises_stall_error(self, monkeypatch):
        """Every rank parks on an event nobody fires: the engine runs dry
        with ``done`` untriggered. That is a failed run (``StallError``,
        CLI exit 1), not the usage error the parent commit raised."""

        def park_forever(cluster, ga, node, thread, chain, on_commit=None):
            yield cluster.engine.event()

        monkeypatch.setattr("repro.legacy.runtime.execute_chain", park_forever)
        with pytest.raises(StallError, match="stalled") as excinfo:
            run_legacy(data_mode=DataMode.SYNTH)
        assert not isinstance(excinfo.value, ConfigurationError)
        assert excinfo.value.report is None  # no fault plan installed

    def test_stall_under_a_fault_plan_carries_the_report(self, monkeypatch):
        from repro.sim.faults import FaultPlan

        def park_forever(cluster, ga, node, thread, chain, on_commit=None):
            yield cluster.engine.event()

        monkeypatch.setattr("repro.legacy.runtime.execute_chain", park_forever)
        cluster = Cluster(
            ClusterConfig(n_nodes=2, cores_per_node=1, data_mode=DataMode.SYNTH)
        )
        cluster.install_faults(FaultPlan(master_seed=3))
        workload = build("t2_7:tiny", RunConfig(), cluster=cluster)
        with pytest.raises(StallError) as excinfo:
            LegacyRuntime(cluster, workload.ga).execute_subroutine(workload.subroutine)
        assert excinfo.value.report is cluster.faults.report
