"""Golden chaos digests: what the fault and steal paths decide, bitwise.

Every cell of ``tests/data/golden_chaos_tiny.json`` — workload {t2_7,
rbgs} x the six runners x stealing {off, on} under the chaos plan — is
run again and must match field for field: both end times as float hex,
every ``FaultReport`` counter, the steal counters and the faulted
output's bitwise match with its reference. Every field is pure Python
over the virtual clock, so the file holds on any host. The steal index
is checked against the full rescan at every request on the way
(``steal_index_oracle``). Regenerate only for an intentional change:
``tests/data/regen_golden_chaos.py``.
"""

import json

import pytest

from tests.data import regen_golden_chaos as regen

GOLDEN = json.loads(regen.GOLDEN.read_text())
CELLS = regen.cells()


def test_covers_every_cell():
    assert sorted(GOLDEN) == sorted(regen.cell_id(*spec) for spec in CELLS)


@pytest.mark.parametrize("spec", CELLS, ids=[regen.cell_id(*spec) for spec in CELLS])
def test_chaos_cell_bitwise(spec, steal_index_oracle):
    workload, runner, stealing = spec
    assert regen.run_cell(*spec) == GOLDEN[regen.cell_id(*spec)]
    if stealing and runner != "original":
        assert steal_index_oracle[0] > 0  # the index check was not vacuous
