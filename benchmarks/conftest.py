"""Shared benchmark helpers.

Every figure bench runs its experiment once (``pedantic`` with one
round — the simulation is deterministic, so repeated rounds measure
nothing but Python variance), writes the report its CLI subcommand
prints under ``benchmarks/results/``, and asserts that every claim
passed, unless :func:`repro.experiments.claims.informational` says the
claims are informational at this scale.

Scale is controlled by ``REPRO_SCALE`` (default ``paper``); set
``REPRO_SCALE=small`` for a quick smoke pass.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def scale() -> str:
    from repro.experiments.calibration import bench_scale

    return bench_scale()


def write_report(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Persist one experiment report and echo it to stdout."""
    path = results_dir / name
    path.write_text(text + "\n")
    print(f"\n{text}\n[report saved to {path}]")


def assert_claims(checks, note=None) -> None:
    """Every claim passed, unless ``note`` says why they do not gate."""
    failed = [check.line for check in checks if not check.passed]
    assert note or not failed, "; ".join(failed)
