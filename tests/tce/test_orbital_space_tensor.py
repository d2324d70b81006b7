"""Unit + property tests for orbital tiling and block-tensor layout."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ga.runtime import GlobalArrays
from repro.sim.cluster import Cluster, ClusterConfig, DataMode
from repro.tce.orbital_space import OrbitalSpace, Tile
from repro.tce.tensor import BlockLayout, BlockTensor
from repro.util.errors import ConfigurationError
from repro.util.rng import seeded_normal
from repro.workloads.base import BoundTensor


class TestOrbitalSpace:
    def test_exact_tiling(self):
        space = OrbitalSpace(nocc=8, nvirt=16, tile_size=4)
        assert [t.size for t in space.holes] == [4, 4]
        assert [t.size for t in space.particles] == [4, 4, 4, 4]
        assert space.n_basis == 24

    def test_ragged_trailing_tile(self):
        space = OrbitalSpace(nocc=10, nvirt=7, tile_size=4)
        assert [t.size for t in space.holes] == [4, 4, 2]
        assert [t.size for t in space.particles] == [4, 3]

    def test_offsets_are_cumulative(self):
        space = OrbitalSpace(nocc=10, nvirt=5, tile_size=4)
        assert [t.offset for t in space.holes] == [0, 4, 8]

    def test_beta_carotene_dimensions(self):
        from repro.tce.molecules import beta_carotene

        system = beta_carotene(tile_size=40)
        assert system.n_basis == 472  # the number the paper quotes
        space = system.orbital_space()
        assert space.n_hole_tiles == 4
        assert space.n_particle_tiles == 9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OrbitalSpace(0, 5, 2)
        with pytest.raises(ConfigurationError):
            OrbitalSpace(5, 5, 0)
        with pytest.raises(ConfigurationError):
            Tile("x", 0, 4, 0)
        with pytest.raises(ConfigurationError):
            OrbitalSpace(4, 4, 2).tiles("q")

    @given(
        nocc=st.integers(min_value=1, max_value=200),
        nvirt=st.integers(min_value=1, max_value=400),
        tile=st.integers(min_value=1, max_value=50),
    )
    def test_tiles_cover_ranges_exactly(self, nocc, nvirt, tile):
        space = OrbitalSpace(nocc, nvirt, tile)
        assert sum(t.size for t in space.holes) == nocc
        assert sum(t.size for t in space.particles) == nvirt
        for tiles in (space.holes, space.particles):
            cursor = 0
            for t in tiles:
                assert t.offset == cursor
                assert 1 <= t.size <= tile
                cursor += t.size


def make_ga(n_nodes=3, data_mode=DataMode.REAL):
    cluster = Cluster(ClusterConfig(n_nodes=n_nodes, data_mode=data_mode))
    return cluster, GlobalArrays(cluster)


class TestBlockLayout:
    def test_blocks_tile_flat_range(self):
        space = OrbitalSpace(8, 16, 4)
        layout = BlockLayout(space, "hp")
        cursor = 0
        for key in layout.keys():
            lo, hi = layout.block_range(key)
            assert lo == cursor
            assert hi - lo == layout.block_size(key)
            cursor = hi
        assert cursor == layout.total == 8 * 16

    def test_block_shape_matches_tiles(self):
        space = OrbitalSpace(10, 7, 4)  # ragged tiles
        layout = BlockLayout(space, "hpp")
        assert layout.block_shape((2, 1, 0)) == (2, 3, 4)

    def test_keep_predicate_restricts_storage(self):
        space = OrbitalSpace(8, 16, 4)
        layout = BlockLayout(space, "pp", keep=lambda key: key[0] <= key[1])
        assert layout.n_blocks == 10  # 4 choose 2 + diagonal
        assert (1, 0) not in layout
        assert (0, 1) in layout

    def test_unknown_block_rejected(self):
        layout = BlockLayout(OrbitalSpace(8, 16, 4), "h")
        with pytest.raises(ConfigurationError):
            layout.block_range((9,))

    def test_empty_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            BlockLayout(OrbitalSpace(8, 16, 4), "")

    def test_total_equals_full_dense_size_without_keep(self):
        space = OrbitalSpace(6, 9, 3)
        layout = BlockLayout(space, "hphh")
        assert layout.total == 6 * 9 * 6 * 6


def _bound(ga, name, space, dims, seed=None):
    """A tensor bound to a fresh array of ``ga``, its contents drawn
    from ``seed`` (the bind's seeded fill) unless None."""
    tensor = BlockTensor(name, BlockLayout(space, dims))
    bound = BoundTensor(tensor, ga.create(name, tensor.total))
    if seed is not None:
        bound.array.adopt(seeded_normal(seed, "x", tensor.total))
    return bound


class TestBlockTensor:
    def test_create_allocates_matching_ga(self):
        cluster, ga = make_ga()
        tensor = _bound(ga, "t2", OrbitalSpace(8, 16, 4), "hh")
        assert tensor.total == 64
        assert tensor.array.total == 64

    def test_fill_and_read_block(self):
        cluster, ga = make_ga()
        space = OrbitalSpace(8, 16, 4)
        tensor = _bound(ga, "v", space, "hp", seed=1)
        lo, hi = tensor.block_range((1, 2))
        block = tensor.array.read_range_direct(lo, hi)
        np.testing.assert_array_equal(block, tensor.flat_values()[lo:hi])
        assert tensor.block_shape((1, 2)) == (4, 4)

    def test_block_values_reads_the_block_not_the_tensor(self, monkeypatch):
        # a block's values are read the way a READ task reads them,
        # through the array's direct range read
        cluster, ga = make_ga()
        tensor = _bound(ga, "v", OrbitalSpace(8, 16, 4), "hp", seed=1)
        flat = tensor.flat_values()
        # gather() concatenates the whole tensor; one block must not
        monkeypatch.setattr(
            type(tensor.array), "gather", lambda self: pytest.fail("gathered")
        )
        for key in tensor.tensor.layout.keys():  # some straddle two owners
            lo, hi = tensor.block_range(key)
            block = tensor.array.read_range_direct(lo, hi)
            assert block.size == np.prod(tensor.block_shape(key))
            np.testing.assert_array_equal(block, flat[lo:hi])
            assert not block.flags.writeable

    def test_fill_is_deterministic(self):
        def values():
            cluster, ga = make_ga()
            return _bound(ga, "v", OrbitalSpace(8, 16, 4), "hp", seed=42).flat_values()

        np.testing.assert_array_equal(values(), values())

    def test_synth_mode_fill_is_noop(self):
        cluster, ga = make_ga(data_mode=DataMode.SYNTH)
        tensor = _bound(ga, "v", OrbitalSpace(8, 16, 4), "hp", seed=1)  # must not raise
        assert not tensor.array.holds_data

    def test_huge_synth_tensor_allocates_no_storage(self):
        # beta-carotene's va tensor is ~5e9 elements; SYNTH mode must
        # handle it with pure offset arithmetic
        cluster, ga = make_ga(n_nodes=32, data_mode=DataMode.SYNTH)
        space = OrbitalSpace(148, 324, 40)
        tensor = _bound(ga, "va", space, "hppp")
        assert tensor.total == 148 * 324**3
        lo, hi = tensor.block_range((3, 8, 8, 8))
        assert hi - lo == 28 * 4 * 4 * 4
