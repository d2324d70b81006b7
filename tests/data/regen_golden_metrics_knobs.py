"""Regenerate ``golden_metrics_knobs.json`` (run from the repo root).

The knob-on twin of ``metrics_sha256`` in ``golden_tiny_digests.json``:
there the knobs and faults are off, and ``golden_chaos_tiny.json`` runs
with the registry off, so neither pins the series that only the knobs
emit. This file does, for every cell of

    workload {t2_7, ccsd, rbgs} x runner {original, v5, dtd}

at ``tiny`` on 4 nodes x 2 cores, REAL, seed 7, with the registry on,
ordered accumulation, message coalescing, the remote-block cache and
stealing on wherever the runner reads them (``api.for_runtime``), and —
for ``original`` and ``v5`` — the chaos plan of ``repro chaos`` at fault
seed 2025 (DTD has no crash recovery and refuses that plan). Each cell
is a sha256 of ``result.metrics`` without the ``run.output_checksum``
gauge (a sum through the host BLAS), so every series name, label and
value is pinned bitwise on any host.

Only regenerate for an *intentional* change of what a run reports:

    PYTHONPATH=src python tests/data/regen_golden_metrics_knobs.py [--out PATH]
"""

import argparse
import hashlib
import json
from pathlib import Path

from repro.core import api
from repro.experiments.calibration import cell_config
from repro.experiments.chaos import default_plan
from repro.ga.cache import RemoteCachePolicy
from repro.sim.cluster import DataMode
from repro.sim.network import CoalescePolicy

WORKLOADS = ("t2_7", "ccsd", "rbgs")
RUNNERS = ("original", "v5", "dtd")
N_NODES = 4
CORES = 2
SEED = 7
FAULT_SEED = 2025
GOLDEN = Path(__file__).parent / "golden_metrics_knobs.json"


def cell_id(workload: str, runner: str) -> str:
    return f"{workload}.{runner}"


def _one_run(workload: str, runner: str, plan):
    """``(result, engine clock)`` of one knob-on run under ``plan``."""
    config = api.for_runtime(
        cell_config(
            CORES,
            N_NODES,
            DataMode.REAL,
            stealing=True,
            metrics=True,
            seed=SEED,
            coalescing=CoalescePolicy(),
            remote_cache=RemoteCachePolicy(),
        ),
        runner,
    )
    built = api.build(f"{workload}:tiny", config)
    built.output.array.enable_ordered_accumulation()
    if plan is not None:
        built.cluster.install_faults(plan)
    result = api.run(built, runtime=runner, config=config)
    return result, built.cluster.engine.now


def run_cell(workload: str, runner: str) -> str:
    """The sha256 of one cell's metrics snapshot."""
    plan = None
    if runner != "dtd":
        _, horizon = _one_run(workload, runner, None)
        plan = default_plan(FAULT_SEED, horizon, N_NODES)
    snapshot = _one_run(workload, runner, plan)[0].metrics
    snapshot["gauges"].pop("run.output_checksum")
    return hashlib.sha256(json.dumps(snapshot, sort_keys=True).encode()).hexdigest()


def cells():
    """Every ``(workload, runner)`` the file covers, in order."""
    return [(workload, runner) for workload in WORKLOADS for runner in RUNNERS]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=GOLDEN, help=f"output file (default {GOLDEN})"
    )
    args = parser.parse_args()
    digests = {}
    for spec in cells():
        digests[cell_id(*spec)] = run_cell(*spec)
        print(cell_id(*spec), digests[cell_id(*spec)])
    args.out.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
