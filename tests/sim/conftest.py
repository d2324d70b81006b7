"""Hypothesis profiles for the simulation tests.

``oracle-ci`` is what CI runs the oracle properties under
(``pytest tests/sim/test_oracles.py --hypothesis-profile=oracle-ci``):
derandomized, so the job draws the same examples on every run and a red
build is a regression, not an unlucky draw; with a fixed example count
larger than the default, since the job runs these two and nothing else.
"""

from hypothesis import settings

settings.register_profile("oracle-ci", derandomize=True, max_examples=400)
