"""End-to-end tests: the t2_7 subroutine over PaRSEC, all five variants.

The central correctness claim reproduced here is the paper's: "the
final result (correlation energy) computed by the different variations
matched up to the 14th digit" — against both the legacy execution and
the independent dense reference.
"""

import numpy as np
import pytest

from repro.core.api import RunConfig, build, ptg_pipeline, run
from repro.core.integration import NwchemDriver
from repro.core.variants import PAPER_VARIANTS, V2, V4, V5, variant_by_name
from repro.legacy.runtime import LegacyRuntime
from repro.sim.cluster import Cluster, ClusterConfig, DataMode
from repro.sim.trace import TaskCategory
from repro.tce.reference import compute_reference, correlation_energy


def fresh_workload(n_nodes=4, cores=2, data_mode=DataMode.REAL, seed=7):
    cluster = Cluster(
        ClusterConfig(n_nodes=n_nodes, cores_per_node=cores, data_mode=data_mode)
    )
    workload = build("t2_7:tiny", RunConfig(seed=seed), cluster=cluster)
    return cluster, workload.ga, workload


def execute(workload, variant):
    """The workload's one level over PaRSEC: the result, and the
    inspection metadata its PTG was built from."""
    runtime, ptg, metadata = ptg_pipeline(
        workload.cluster, workload.subroutine, variant, RunConfig()
    )
    return runtime.execute(ptg, metadata), metadata


class TestNumericalEquivalence:
    @pytest.mark.parametrize("name", sorted(PAPER_VARIANTS))
    def test_variant_matches_dense_reference(self, name):
        cluster, ga, workload = fresh_workload()
        result = run(workload, variant=variant_by_name(name))
        expected = compute_reference(workload)
        np.testing.assert_allclose(
            workload.i2.flat_values(), expected, rtol=1e-12, atol=1e-12
        )
        assert result.n_tasks > 0

    def test_all_variants_agree_on_correlation_energy_to_14_digits(self):
        """The paper's Section IV-A claim, including the legacy code."""
        energies = {}
        for name in sorted(PAPER_VARIANTS):
            cluster, ga, workload = fresh_workload()
            run(workload, variant=variant_by_name(name))
            energies[name] = correlation_energy(workload.i2.flat_values())
        cluster, ga, workload = fresh_workload()
        LegacyRuntime(cluster, ga).execute_subroutine(workload.subroutine)
        energies["legacy"] = correlation_energy(workload.i2.flat_values())
        reference = energies["legacy"]
        assert reference != 0.0
        for name, energy in energies.items():
            assert energy == pytest.approx(reference, rel=1e-13), name

    def test_v1_matches_legacy_bitwise(self):
        """v1 mimics the original chain order exactly, so even the
        floating-point summation order coincides."""
        cluster, ga, workload = fresh_workload()
        run(workload, variant=variant_by_name("v1"))
        parsec_values = workload.i2.flat_values()
        cluster, ga, workload = fresh_workload()
        LegacyRuntime(cluster, ga).execute_subroutine(workload.subroutine)
        np.testing.assert_array_equal(parsec_values, workload.i2.flat_values())


class TestTaskCounts:
    def test_v5_task_census(self):
        cluster, ga, workload = fresh_workload()
        result, metadata = execute(workload, V5)
        sub = workload.subroutine
        counts = result.tasks_per_class
        assert counts["GEMM"] == sub.n_gemms
        assert counts["READ_A"] == sub.n_gemms
        assert counts["READ_B"] == sub.n_gemms
        assert counts["SORT"] == sub.n_chains
        # fully parallel GEMMs: chains of g GEMMs need g-1 reduces
        assert counts["REDUCE"] == sum(c.length - 1 for c in sub.chains)
        assert "DFILL" not in counts  # no multi-GEMM segments at height 1
        assert counts["WRITE_C"] == sum(
            len(c.write_segs) for c in metadata.chains
        )

    def test_v1_task_census(self):
        cluster, ga, workload = fresh_workload()
        result, metadata = execute(workload, variant_by_name("v1"))
        sub = workload.subroutine
        counts = result.tasks_per_class
        assert counts["DFILL"] == sub.n_chains  # one per chain
        assert "REDUCE" not in counts
        assert counts["SORT_I"] == sum(len(c.active_sorts) for c in sub.chains)
        assert counts["WRITE_C_I"] == sum(
            len(c.active_sorts) * len(m.write_segs)
            for c, m in zip(sub.chains, metadata.chains)
        )

    def test_v4_has_parallel_sorts_single_write(self):
        cluster, ga, workload = fresh_workload()
        result = run(workload, variant=V4)
        counts = result.tasks_per_class
        assert "SORT_I" in counts and "WRITE_C" in counts
        assert "SORT" not in counts and "WRITE_C_I" not in counts

    def test_intermediate_segment_height(self):
        cluster, ga, workload = fresh_workload()
        variant = V4.with_overrides(name="v4h2", segment_height=2)
        result = run(workload, variant=variant)
        expected = compute_reference(workload)
        np.testing.assert_allclose(
            workload.i2.flat_values(), expected, rtol=1e-12, atol=1e-12
        )
        # chains of 4 GEMMs -> 2 segments of 2 -> DFILLs exist, 1 reduce
        assert result.tasks_per_class["DFILL"] > 0
        assert result.tasks_per_class["REDUCE"] > 0


class TestBehaviour:
    def test_write_tasks_run_on_owner_nodes(self):
        cluster, ga, workload = fresh_workload()
        _, metadata = execute(workload, V5)
        writes = cluster.trace.filtered(category=TaskCategory.WRITE)
        by_label = {}
        for L1, chain in enumerate(metadata.chains):
            for w, seg in enumerate(chain.write_segs):
                by_label[f"WRITE_C({L1}, {w})"] = seg.node
        assert len(writes) == len(by_label)
        for span in writes:
            assert span.node == by_label[span.label]

    def test_read_tasks_run_on_data_owners(self):
        cluster, ga, workload = fresh_workload()
        _, metadata = execute(workload, V5)
        reads = cluster.trace.filtered(category=TaskCategory.READ_A)
        owners = {
            f"READ_A({L1}, {L2})": owner
            for L1, chain in enumerate(metadata.chains)
            for L2, owner in enumerate(chain.a_owner)
        }
        assert len(owners) == workload.subroutine.n_gemms
        for span in reads:
            assert span.node == owners[span.label]

    def test_deterministic_timing(self):
        def once():
            cluster, ga, workload = fresh_workload()
            return run(workload, variant=V4).execution_time

        assert once() == once()

    def test_priorities_help_vs_v2_even_at_tiny_scale(self):
        """v4 (priorities) should not be slower than v2 (none)."""
        cluster, _, workload = fresh_workload(data_mode=DataMode.SYNTH)
        t_v4 = run(workload, variant=V4).execution_time
        cluster, _, workload = fresh_workload(data_mode=DataMode.SYNTH)
        t_v2 = run(workload, variant=V2).execution_time
        assert t_v4 <= t_v2 * 1.05

    def test_synth_mode_executes_full_graph(self):
        cluster, ga, workload = fresh_workload(data_mode=DataMode.SYNTH)
        result = run(workload, variant=V5)
        assert result.n_tasks > 3 * workload.subroutine.n_gemms
        assert result.execution_time > 0


class TestIntegration:
    def test_mixed_iteration_runs_kernels_in_order(self):
        cluster, ga, workload = fresh_workload()
        # split the chains into two pseudo-subroutines
        from repro.tce.subroutine import Subroutine

        chains = workload.subroutine.chains
        half = len(chains) // 2
        # re-number so each subroutine's chain ids are dense
        sub_a = Subroutine(
            "icsd_t2_7", chains[:half], workload.subroutine.inputs, workload.i2
        )
        import dataclasses

        renumbered = [
            dataclasses.replace(c, chain_id=i) for i, c in enumerate(chains[half:])
        ]
        sub_b = Subroutine(
            "icsd_t2_8", renumbered, workload.subroutine.inputs, workload.i2
        )
        driver = NwchemDriver(cluster, ga, parsec_kernels={"icsd_t2_7"})
        result = driver.run([sub_a, sub_b])
        assert [k.mode for k in result.kernels] == ["parsec", "legacy"]
        t2_7 = result.timing("icsd_t2_7")
        t2_8 = result.timing("icsd_t2_8")
        assert t2_7.end <= t2_8.start + 1e-12  # strictly sequenced
        # and the combined numerics still match the dense reference
        expected = compute_reference(workload)
        np.testing.assert_allclose(
            workload.i2.flat_values(), expected, rtol=1e-12, atol=1e-12
        )

    def test_all_parsec_driver(self):
        cluster, ga, workload = fresh_workload()
        driver = NwchemDriver(cluster, ga)  # parsec_kernels=None -> all
        result = driver.run([workload.subroutine])
        assert result.kernels[0].mode == "parsec"
        assert result.execution_time > 0
