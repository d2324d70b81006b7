"""Golden knob-on metrics: every series a knob-on run reports, bitwise.

Every cell of ``tests/data/golden_metrics_knobs.json`` — workload {t2_7,
ccsd, rbgs} x runner {original, v5, dtd} with coalescing, the remote
cache and stealing on where the runner reads them and the chaos plan
(original, v5) on — is run again
with the registry on and its metrics snapshot must hash to the committed
sha256. Every series is pure Python over the virtual clock, so the file
holds on any host. Regenerate only for an intentional change:
``tests/data/regen_golden_metrics_knobs.py``.
"""

import json

import pytest

from tests.data import regen_golden_metrics_knobs as regen

GOLDEN = json.loads(regen.GOLDEN.read_text())
CELLS = regen.cells()


def test_covers_every_cell():
    assert sorted(GOLDEN) == sorted(regen.cell_id(*spec) for spec in CELLS)


@pytest.mark.parametrize("spec", CELLS, ids=[regen.cell_id(*spec) for spec in CELLS])
def test_knob_metrics_bitwise(spec):
    assert regen.run_cell(*spec) == GOLDEN[regen.cell_id(*spec)]
