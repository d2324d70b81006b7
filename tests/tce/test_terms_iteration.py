"""Tests for generic contraction terms and the 7-level CC iteration."""

import numpy as np
import pytest

from repro.core.api import RunConfig, build, run
from repro.core.integration import NwchemDriver
from repro.ga.runtime import GlobalArrays
from repro.legacy.runtime import LegacyRuntime
from repro.sim.cluster import Cluster, ClusterConfig, DataMode
from repro.tce.cc_iteration import DEFAULT_ITERATION_TERMS
from repro.tce.molecules import tiny_system
from repro.tce.reference import (
    compute_iteration_reference,
    compute_subroutine_reference,
    correlation_energy,
)
from repro.tce.terms import TermBuilder, TermSpec, TermStructure
from repro.util.errors import ConfigurationError


def make_env(n_nodes=4, cores=2, data_mode=DataMode.REAL):
    cluster = Cluster(
        ClusterConfig(n_nodes=n_nodes, cores_per_node=cores, data_mode=data_mode)
    )
    return cluster, GlobalArrays(cluster)


def make_term(ga, spec):
    return TermStructure(tiny_system().orbital_space(), spec).bind(ga, seed=7)


#: the machine of ``make_env``'s defaults, for the registered workloads
TINY = RunConfig(n_nodes=4, cores_per_node=2)


class TestTermSpec:
    def test_operand_dims_derived_from_contraction(self):
        ring = TermSpec("ring", "hp")
        assert ring.a_dims == "hppp" and ring.b_dims == "hphh"
        ladder = TermSpec("ladder", "pp")
        assert ladder.a_dims == "pppp" and ladder.b_dims == "pphh"
        one = TermSpec("one", "h")
        assert one.a_dims == "hpp" and one.b_dims == "hhh"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TermSpec("bad", "")
        with pytest.raises(ConfigurationError):
            TermSpec("bad", "hpx"[0:3])
        with pytest.raises(ConfigurationError):
            TermSpec("bad", "xy"[0:2])


class TestTermBuilder:
    @pytest.mark.parametrize("contraction", ["hp", "hh", "pp", "h", "p"])
    def test_every_contraction_kind_builds_and_verifies(self, contraction):
        cluster, ga = make_env()
        space = tiny_system().orbital_space()
        workload = make_term(ga, TermSpec(f"t_{contraction}", contraction))
        sub = workload.subroutine
        assert sub.n_chains > 0
        # chain length = kept contraction tuples
        expected_total = 1
        for kind in contraction:
            expected_total *= len(space.tiles(kind))
        assert all(0 < c.length <= expected_total for c in sub.chains)
        # numerics check through the legacy runtime
        LegacyRuntime(cluster, ga).execute_subroutine(sub)
        expected = compute_subroutine_reference(sub, workload.arrays)
        np.testing.assert_allclose(
            workload.output.flat_values(), expected, rtol=1e-12, atol=1e-12
        )

    def test_tensor_pool_shares_operands_across_terms(self):
        builder = TermBuilder(tiny_system().orbital_space())
        sub_a = builder.build(TermSpec("a", "hp"))
        sub_b = builder.build(TermSpec("b", "hp"))
        assert sub_a.inputs[0] is sub_b.inputs[0]
        assert sub_a.inputs[1] is sub_b.inputs[1]
        assert sub_a.output is sub_b.output

    def test_distinct_contractions_use_distinct_tensors(self):
        builder = TermBuilder(tiny_system().orbital_space())
        ring = builder.build(TermSpec("ring", "hp"))
        ladder = builder.build(TermSpec("ladder", "pp"))
        assert ring.inputs[0] is not ladder.inputs[0]

    def test_ladder_term_over_parsec_matches_reference(self):
        workload = make_term(make_env()[1], TermSpec("lad", "pp"))
        run(workload, "v5")
        np.testing.assert_allclose(
            workload.output.flat_values(),
            workload.reference_values(),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_one_index_term_over_parsec_matches_reference(self):
        workload = make_term(make_env()[1], TermSpec("one", "h"))
        run(workload, "v4")
        np.testing.assert_allclose(
            workload.output.flat_values(),
            workload.reference_values(),
            rtol=1e-12,
            atol=1e-12,
        )


class TestCcsdIteration:
    def test_default_table_has_seven_levels(self):
        levels = {spec.level for spec in DEFAULT_ITERATION_TERMS}
        assert levels == set(range(7))
        names = [spec.name for spec in DEFAULT_ITERATION_TERMS]
        assert "icsd_t2_7" in names
        assert len(names) == len(set(names))

    def test_build_iteration_structure(self):
        iteration = build("ccsd:tiny", TINY)
        assert len(iteration.levels()) == 7
        assert len(iteration.subroutines) == 14
        assert iteration.structure.n_gemms > 0
        per_level = [sub.level for sub in iteration.subroutines]
        assert all(per_level.count(level) == 2 for level in range(7))
        assert iteration.subroutine("icsd_t2_7").level == 3
        with pytest.raises(KeyError):
            iteration.subroutine("missing")

    def test_chain_levels_renumber_densely(self):
        iteration = build("ccsd:tiny", TINY)
        for level in iteration.levels():
            assert [c.chain_id for c in level.chains] == list(range(level.n_chains))

    def test_legacy_full_iteration_matches_reference(self):
        iteration = build("ccsd:tiny", TINY)
        LegacyRuntime(iteration.cluster, iteration.ga).execute(
            [list(level.chains) for level in iteration.levels()]
        )
        expected = compute_iteration_reference(iteration.subroutines, iteration.arrays)
        np.testing.assert_allclose(
            iteration.i2.flat_values(), expected, rtol=1e-12, atol=1e-12
        )

    def test_mixed_driver_iteration_matches_reference(self):
        """Port only icsd_t2_7 + the ladders; the rest stays legacy."""
        iteration = build("ccsd:tiny", TINY)
        driver = NwchemDriver(
            iteration.cluster,
            iteration.ga,
            parsec_kernels={"icsd_t2_7", "icsd_t2_8", "icsd_t2_13"},
        )
        result = driver.run(iteration.subroutines)
        modes = {k.name: k.mode for k in result.kernels}
        assert modes["icsd_t2_7"] == "parsec"
        assert modes["icsd_t2_1"] == "legacy"
        expected = compute_iteration_reference(iteration.subroutines, iteration.arrays)
        np.testing.assert_allclose(
            iteration.i2.flat_values(), expected, rtol=1e-12, atol=1e-12
        )

    def test_fully_ported_iteration_energy_matches_legacy(self):
        def energy(parsec_kernels):
            iteration = build("ccsd:tiny", TINY)
            driver = NwchemDriver(
                iteration.cluster, iteration.ga, parsec_kernels=parsec_kernels
            )
            driver.run(iteration.subroutines)
            return correlation_energy(iteration.i2.flat_values())

        legacy_energy = energy(parsec_kernels=set())
        parsec_energy = energy(parsec_kernels=None)  # all ported
        assert parsec_energy == pytest.approx(legacy_energy, rel=1e-13)

    def test_iteration_reference_requires_subroutines(self):
        with pytest.raises(ValueError):
            compute_iteration_reference([], {})
