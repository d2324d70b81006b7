"""The dense reference reads its operands as snapshots, never as copies.

``compute_subroutine_reference`` and the rbgs smoother take every GEMM
or stencil block from a :class:`~repro.tce.reference.BlockReader` — the
Global Array's per-owner snapshots, concatenated only for a block that
spans owners. They used to gather every input whole first, which set a
REAL workload's peak memory in set-up. The result must not move by a
bit.
"""

import numpy as np
import pytest

from repro.core import api
from repro.ga.distribution import Distribution
from repro.sim.cluster import DataMode
from repro.tce import reference
from repro.tce.reference import BlockReader
from repro.workloads import rbgs


def gathered(array):
    """The reader as it used to be: the whole contents, copied."""
    return array.gather()


@pytest.mark.parametrize("token", ["t2_7:tiny", "ccsd:tiny", "rbgs:tiny"])
def test_snapshot_reference_is_bitwise_the_gathered_one(token, monkeypatch):
    config = api.RunConfig(n_nodes=4, cores_per_node=2, data_mode=DataMode.REAL)
    workload = api.build(token, config)
    got = workload.reference_values()
    # reading snapshots neither copies nor writes a segment
    assert all(a.segment_copies == 0 for a in workload.arrays.values())
    monkeypatch.setattr(reference, "BlockReader", gathered)
    monkeypatch.setattr(rbgs, "BlockReader", gathered)
    expected = workload.reference_values()
    assert got.tobytes() == expected.tobytes()


class _Array:
    """Just what a :class:`BlockReader` reads: a distribution and the
    owners' segments."""

    def __init__(self, values, n_nodes):
        self.values = values
        self.distribution = Distribution(len(values), n_nodes)

    def read_segment(self, segment):
        return self.values[segment.lo : segment.hi]


@pytest.mark.parametrize("n_nodes", [1, 3, 7])
def test_every_block_slices_like_the_flat_contents(n_nodes):
    values = np.arange(20.0)
    reader = BlockReader(_Array(values, n_nodes))
    for lo in range(20):
        for hi in range(lo, 21):
            assert np.array_equal(reader[lo:hi], values[lo:hi]), (lo, hi)
