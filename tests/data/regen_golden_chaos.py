"""Regenerate ``golden_chaos_tiny.json`` (run from the repo root).

The faulted twin of ``regen_golden_digests.py``: the chaos triple of
``repro chaos`` (a fault-free reference run, then a run under the
runner's seeded :func:`~repro.experiments.chaos.default_plan`) for every
cell of

    workload {t2_7, rbgs} x runner {original, v1..v5} x stealing {off, on}

at ``tiny`` on 4 nodes x 2 cores, REAL, seed 7, fault seed 2025 — the
``chaos`` subcommand's defaults. Each cell pins what the fault and steal
paths decide, all of it pure Python over the virtual clock and therefore
bitwise on every host:

- ``end_time_clean`` / ``end_time_faulted`` — the engine clock after the
  reference and after the faulted run, as float hex;
- ``faults`` — every :class:`~repro.sim.faults.FaultReport` counter of
  the faulted run (floats as hex);
- ``steal`` — the faulted run's work-stealing counters (PaRSEC runners;
  zero with stealing off);
- ``bitwise_match`` — the faulted output equals the reference bit for bit.

Only regenerate for an *intentional* change of fault or steal behaviour:

    PYTHONPATH=src python tests/data/regen_golden_chaos.py [--out PATH]
"""

import argparse
import dataclasses
import json
from pathlib import Path

import numpy as np

from repro.core import api
from repro.experiments.calibration import cell_config
from repro.experiments.chaos import default_plan
from repro.sim.cluster import DataMode

WORKLOADS = ("t2_7", "rbgs")
RUNNERS = ("original", "v1", "v2", "v3", "v4", "v5")
STEALING = (False, True)
N_NODES = 4
CORES = 2
SEED = 7
FAULT_SEED = 2025
STEAL_COUNTERS = (
    "steal_requests",
    "steals_granted",
    "steals_denied",
    "chains_migrated",
    "migrated_flops",
    "steal_forwarded_bytes",
)
GOLDEN = Path(__file__).parent / "golden_chaos_tiny.json"


def _exact(value):
    """Floats as hex, so a JSON round trip cannot blur the last bit."""
    return value.hex() if isinstance(value, float) else value


def cell_id(workload: str, runner: str, stealing: bool) -> str:
    return f"{workload}.{runner}.{'steal' if stealing else 'static'}"


def _one_run(workload: str, runner: str, config, plan):
    """(output values, engine clock, fault report or None, run result)."""
    built = api.build(f"{workload}:tiny", config)
    cluster = built.cluster
    built.output.array.enable_ordered_accumulation()
    if plan is not None:
        cluster.install_faults(plan)
    result = api.run(built, runtime=runner, config=config)
    report = cluster.faults.report if cluster.faults is not None else None
    return built.output.flat_values(), cluster.engine.now, report, result


def run_cell(workload: str, runner: str, stealing: bool) -> dict:
    """The reference and faulted run of one chaos cell, as its digest."""
    config = api.for_runtime(
        cell_config(CORES, N_NODES, DataMode.REAL, stealing=stealing, seed=SEED),
        runner,
    )
    reference, horizon, _, _ = _one_run(workload, runner, config, None)
    plan = default_plan(FAULT_SEED, horizon, N_NODES)
    values, end, report, result = _one_run(workload, runner, config, plan)
    return {
        "end_time_clean": horizon.hex(),
        "end_time_faulted": end.hex(),
        "faults": {k: _exact(v) for k, v in dataclasses.asdict(report).items()},
        "steal": {
            name: _exact(getattr(result, name))
            for name in STEAL_COUNTERS
            if hasattr(result, name)
        },
        "bitwise_match": bool(np.array_equal(values, reference)),
    }


def cells():
    """Every ``(workload, runner, stealing)`` the file covers, in order."""
    return [
        (workload, runner, stealing)
        for workload in WORKLOADS
        for stealing in STEALING
        for runner in RUNNERS
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=GOLDEN, help=f"output file (default {GOLDEN})"
    )
    args = parser.parse_args()
    digests = {}
    for spec in cells():
        digests[cell_id(*spec)] = run_cell(*spec)
        print(cell_id(*spec), digests[cell_id(*spec)]["end_time_faulted"])
    args.out.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
