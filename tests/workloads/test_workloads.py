"""The two new workloads: structure, references, multi-level execution."""

import numpy as np
import pytest

from repro.core import api
from repro.experiments.calibration import make_cluster, make_workload
from repro.sim.cluster import DataMode
from repro.util.errors import ConfigurationError
from repro.workloads.rbgs import RBGS_PRESETS, parse_grid


def _real_workload(token, n_nodes=4, cores=2, seed=7):
    cluster = make_cluster(cores, n_nodes=n_nodes, data_mode=DataMode.REAL)
    return make_workload(cluster, scale="tiny", seed=seed, workload=token)


class TestRbgsGridParsing:
    def test_presets(self):
        for name, shape in RBGS_PRESETS.items():
            assert parse_grid(name) == shape

    def test_explicit_grids(self):
        assert parse_grid("8x8") == (8, 8, 4)  # default tile
        assert parse_grid("6x4x3") == (6, 4, 3)

    @pytest.mark.parametrize("bad", ["", "8", "8x", "0x8", "8x8x0", "axb", "8x8x8x8"])
    def test_bad_grids_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="bad rbgs grid"):
            parse_grid(bad)


class TestRbgsStructure:
    def test_two_colored_waves(self):
        workload = _real_workload("rbgs")
        levels = workload.levels()
        assert [s.level for s in levels] == [0, 1]
        # 6x6 checkerboard: 18 red + 18 black tile updates
        assert [s.n_chains for s in levels] == [18, 18]

    def test_boundary_chains_are_shorter(self):
        workload = _real_workload("rbgs")
        lengths = {
            len(chain.gemms)
            for level in workload.levels()
            for chain in level.chains
        }
        # corners 3, edges 4, interior 5 stencil sources
        assert lengths == {3, 4, 5}

    def test_reference_matches_the_legacy_run(self):
        workload = _real_workload("rbgs")
        api.run(workload, runtime="legacy")
        np.testing.assert_allclose(
            workload.output.flat_values(),
            workload.reference_values(),
            rtol=1e-12,
        )


class TestCcsdStructure:
    def test_seven_barrier_levels(self):
        workload = _real_workload("ccsd")
        levels = workload.levels()
        assert len(levels) == 7
        assert [s.level for s in levels] == list(range(7))
        # each level fuses its terms into one subroutine with a dense
        # chain-id range (the PTG domain and NXTVAL both need it)
        for sub in levels:
            assert [c.chain_id for c in sub.chains] == list(range(sub.n_chains))

    def test_reference_matches_the_legacy_run(self):
        from repro.tce.reference import correlation_energy

        workload = _real_workload("ccsd")
        api.run(workload, runtime="legacy")
        run_energy = correlation_energy(workload.output.flat_values())
        ref_energy = correlation_energy(workload.reference_values())
        assert run_energy == pytest.approx(ref_energy, rel=1e-12)


class TestMultiLevelExecution:
    def test_legacy_and_ptg_agree_across_barriers(self):
        outputs = {}
        for runtime in ("legacy", "v5"):
            workload = _real_workload("rbgs")
            api.run(workload, runtime=runtime)
            outputs[runtime] = workload.output.flat_values()
        np.testing.assert_allclose(
            outputs["legacy"], outputs["v5"], rtol=1e-12
        )

    def test_barriers_are_charged_between_levels(self):
        # a 2-level workload pays exactly one barrier more than the sum
        # of its levels would alone; cheapest proxy: the run completes
        # with a strictly positive virtual time on every runtime
        workload = _real_workload("rbgs", n_nodes=2, cores=1)
        result = api.run(workload, runtime="v1")
        assert result.execution_time > 0
        assert result.n_tasks > 0


class TestSharedBlockRefs:
    """The chain IR names each stored block with one ``BlockRef``: every
    GEMM operand and SORT target on the same (tensor, block key) is the
    same object."""

    @pytest.mark.parametrize("token", ["t2_7:small", "rbgs:small", "ccsd:tiny"])
    def test_one_block_ref_per_tensor_block(self, token):
        from repro.workloads.registry import parse_workload_token, workload_spec

        name, params = parse_workload_token(token)
        structure = workload_spec(name).builder(params)
        named = 0
        refs: dict[tuple, set] = {}
        for level in structure.levels:
            for chain in level.chains:
                blocks = [ref for gemm in chain.gemms for ref in (gemm.a, gemm.b)]
                blocks += [sort.target for sort in chain.sort_writes]
                named += len(blocks)
                for ref in blocks:
                    refs.setdefault((id(ref.tensor), ref.key), set()).add(id(ref))
        assert all(len(objects) == 1 for objects in refs.values())
        # sharing is real: far fewer objects than operands named
        assert len(refs) < named // 2
