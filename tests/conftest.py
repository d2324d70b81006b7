"""Fixtures shared across the test packages."""

import gc

import pytest


@pytest.fixture
def no_collector():
    """Run with the cyclic collector off: whatever dies, dies by refcount."""
    gc.collect()  # earlier tests' garbage must not be ours to explain
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture
def steal_index_oracle(monkeypatch):
    """Check the live-chain steal index against the full rescan
    (``tests/sim/reference_models.py``) at every steal request of the
    test; yields a one-item list counting the requests checked."""
    from repro.parsec.stealing import StealCoordinator
    from tests.sim.reference_models import reference_eligible_chains

    indexed = StealCoordinator._eligible_chains
    checked = [0]

    def order(item):
        return (-item[2], item[0])

    def both(coordinator, victim):
        expected = sorted(reference_eligible_chains(coordinator, victim), key=order)
        eligible = indexed(coordinator, victim)
        assert sorted(eligible, key=order) == expected
        checked[0] += 1
        return eligible

    monkeypatch.setattr(StealCoordinator, "_eligible_chains", both)
    yield checked
