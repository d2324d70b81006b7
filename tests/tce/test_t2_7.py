"""Tests for the icsd_t2_7 workload generator and the dense reference."""

import numpy as np
import pytest

from repro.core.api import RunConfig, build
from repro.sim.cluster import DataMode
from repro.tce import terms
from repro.tce.molecules import SCALE_PRESETS, system_for_scale
from repro.tce.reference import chain_output, compute_reference, correlation_energy
from repro.util.errors import ConfigurationError


def make_workload(data_mode=DataMode.REAL, seed=7):
    config = RunConfig(n_nodes=4, cores_per_node=2, data_mode=data_mode, seed=seed)
    return build("t2_7:tiny", config)


@pytest.fixture
def unfiltered(monkeypatch):
    """Build terms without the symmetry filter's parity rule."""
    monkeypatch.setattr(terms, "SYMMETRY_FILTER", False)


class TestChainStructure:
    def test_chain_keys_cover_unique_tile_pairs(self, unfiltered):
        workload = make_workload()
        space = workload.space
        keys = {chain.key for chain in workload.subroutine.chains}
        expected = {
            (p3, p4, h1, h2)
            for p3 in range(space.n_particle_tiles)
            for p4 in range(p3, space.n_particle_tiles)
            for h1 in range(space.n_hole_tiles)
            for h2 in range(h1, space.n_hole_tiles)
        }
        assert keys == expected

    def test_chain_ids_sequential_in_program_order(self):
        workload = make_workload()
        ids = [chain.chain_id for chain in workload.subroutine.chains]
        assert ids == list(range(len(ids)))

    def test_unfiltered_chain_length_is_full_contraction_space(self, unfiltered):
        workload = make_workload()
        space = workload.space
        expected = space.n_hole_tiles * space.n_particle_tiles
        assert all(c.length == expected for c in workload.subroutine.chains)

    def test_symmetry_filter_keeps_half_the_iterations(self, monkeypatch):
        filtered = make_workload().subroutine
        monkeypatch.setattr(terms, "SYMMETRY_FILTER", False)
        unfiltered = make_workload().subroutine
        # the filter's value is part of the inspection identity
        assert filtered.structure_token != unfiltered.structure_token
        assert 0 < filtered.n_gemms < unfiltered.n_gemms
        # the parity rule keeps exactly half when tile counts are even
        assert filtered.n_gemms == unfiltered.n_gemms // 2

    def test_gemm_positions_are_dense_within_chain(self):
        workload = make_workload()
        for chain in workload.subroutine.chains:
            assert [g.position for g in chain.gemms] == list(range(chain.length))

    def test_gemm_shapes_match_tiles(self):
        workload = make_workload()
        space = workload.space
        chain = workload.subroutine.chains[0]
        p3b, p4b, h1b, h2b = chain.key
        assert chain.m == space.particles[p3b].size * space.particles[p4b].size
        assert chain.n == space.holes[h1b].size * space.holes[h2b].size
        for gemm in chain.gemms:
            h7b, p5b = gemm.a.key[0], gemm.a.key[1]
            assert gemm.k == space.holes[h7b].size * space.particles[p5b].size
            assert gemm.a.key == (h7b, p5b, p3b, p4b)
            assert gemm.b.key == (h7b, p5b, h1b, h2b)

    def test_operand_refs_resolve_into_tensors(self):
        workload = make_workload()
        gemm = workload.subroutine.chains[0].gemms[0]
        # the IR names the tensors; the workload binds them to its arrays
        assert gemm.a.tensor is workload.structure.va
        assert gemm.b.tensor is workload.structure.tb
        assert workload.va.array is workload.arrays[gemm.a.tensor.name]
        assert gemm.a.size == gemm.k * gemm.m
        assert gemm.b.size == gemm.k * gemm.n


class TestSortWrites:
    def test_four_branches_always_present(self):
        workload = make_workload()
        for chain in workload.subroutine.chains:
            assert len(chain.sort_writes) == 4

    def test_guard_counts_one_two_or_four(self):
        """The paper: 'one, two, or four SORT operations'."""
        workload = make_workload()
        counts = {len(chain.active_sorts) for chain in workload.subroutine.chains}
        assert counts <= {1, 2, 4}
        assert 1 in counts  # generic off-diagonal chains
        assert 4 in counts  # fully diagonal chains (p3b==p4b, h1b==h2b)

    def test_guards_match_paper_predicates(self):
        workload = make_workload()
        for chain in workload.subroutine.chains:
            p3b, p4b, h1b, h2b = chain.key
            expected = [
                p3b <= p4b and h1b <= h2b,
                p3b <= p4b and h2b <= h1b,
                p4b <= p3b and h1b <= h2b,
                p4b <= p3b and h2b <= h1b,
            ]
            assert [sw.guard for sw in chain.sort_writes] == expected

    def test_sort_targets_are_permuted_blocks_of_i2(self):
        workload = make_workload()
        chain = workload.subroutine.chains[0]
        p3b, p4b, h1b, h2b = chain.key
        targets = [sw.target.key for sw in chain.sort_writes]
        assert targets == [
            (p3b, p4b, h1b, h2b),
            (p3b, p4b, h2b, h1b),
            (p4b, p3b, h1b, h2b),
            (p4b, p3b, h2b, h1b),
        ]
        for sw in chain.sort_writes:
            assert sw.target.tensor is workload.structure.i2

    def test_signs_follow_antisymmetry(self):
        workload = make_workload()
        signs = [sw.sign for sw in workload.subroutine.chains[0].sort_writes]
        assert signs == [+1.0, -1.0, -1.0, +1.0]


class TestWorkloadScales:
    def test_tiny_counts(self):
        sub = make_workload().subroutine
        # 4 p-pairs choose-2 +diag = 10, h pairs = 3 -> 30 chains
        assert sub.n_chains == 30

    def test_paper_scale_structure_without_data(self):
        config = RunConfig(n_nodes=32, cores_per_node=1, data_mode=DataMode.SYNTH)
        sub = build("t2_7:paper", config).subroutine
        # 9 particle tiles -> 45 unique pairs; 4 hole tiles -> 10 pairs
        assert sub.n_chains == 450
        assert sub.n_gemms == 450 * 18  # symmetry filter halves 4*9=36
        assert sub.max_chain_length == 18

    def test_scale_presets_exist(self):
        assert set(SCALE_PRESETS) == {"tiny", "small", "paper", "full"}
        assert system_for_scale("paper").n_basis == 472
        with pytest.raises(ConfigurationError):
            system_for_scale("bogus")

    def test_describe_mentions_counts(self):
        sub = make_workload().subroutine
        text = sub.describe()
        assert "icsd_t2_7" in text
        assert str(sub.n_chains) in text


class TestReference:
    def test_chain_output_matches_manual_einsum(self):
        workload = make_workload()
        chain = workload.subroutine.chains[0]
        va = workload.va.flat_values()
        tb = workload.tb.flat_values()
        expected = np.zeros((chain.m, chain.n))
        for gemm in chain.gemms:
            a = va[gemm.a.lo : gemm.a.hi].reshape(gemm.k, gemm.m)
            b = tb[gemm.b.lo : gemm.b.hi].reshape(gemm.k, gemm.n)
            expected += np.einsum("km,kn->mn", a, b)
        values = {"v:hppp": va, "t:hphh": tb}
        np.testing.assert_allclose(chain_output(chain, values), expected, rtol=1e-13)

    def test_reference_is_deterministic(self):
        ref1 = compute_reference(make_workload(seed=11))
        ref2 = compute_reference(make_workload(seed=11))
        np.testing.assert_array_equal(ref1, ref2)

    def test_reference_changes_with_seed(self):
        ref1 = compute_reference(make_workload(seed=1))
        ref2 = compute_reference(make_workload(seed=2))
        assert not np.allclose(ref1, ref2)

    def test_reference_nonzero(self):
        assert np.linalg.norm(compute_reference(make_workload())) > 0

    def test_reference_rejects_synth_mode(self):
        workload = make_workload(data_mode=DataMode.SYNTH)
        with pytest.raises(ValueError):
            compute_reference(workload)

    def test_diagonal_chain_writes_respect_permutation_symmetry(self, unfiltered):
        """For a fully diagonal chain all four sorts target the same block;
        the accumulated block must equal C - C_swapped_h - C_swapped_p + C_both."""
        workload = make_workload()
        diag = next(
            c
            for c in workload.subroutine.chains
            if c.key[0] == c.key[1] and c.key[2] == c.key[3]
        )
        assert len(diag.active_sorts) == 4
        values = {name: workload.arrays[name].gather() for name in ("v:hppp", "t:hphh")}
        C = chain_output(diag, values).reshape(diag.tile_shape)
        expected = (
            C
            - np.transpose(C, (0, 1, 3, 2))
            - np.transpose(C, (1, 0, 2, 3))
            + np.transpose(C, (1, 0, 3, 2))
        )
        # extract this block's contribution from a reference computed
        # with only this chain active
        contrib = np.zeros(diag.c_size).reshape(diag.tile_shape)
        for sw in diag.active_sorts:
            contrib += sw.sign * np.transpose(C, sw.perm)
        np.testing.assert_allclose(contrib, expected, rtol=1e-13)

    def test_correlation_energy_probe_sensitivity(self):
        ref = compute_reference(make_workload())
        energy = correlation_energy(ref)
        perturbed = ref.copy()
        perturbed[3] += 1e-9
        assert correlation_energy(perturbed) != energy
        assert correlation_energy(ref) == energy  # pure function
