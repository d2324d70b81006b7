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
