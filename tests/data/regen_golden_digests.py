"""Regenerate ``golden_tiny_digests.json`` (run from the repo root).

Only do this for an *intentional* behavioural change — the digests are
the bitwise-equivalence contract of the DES core and of the workload
SDK (every registered workload through every runtime), and any drift on
an optimization-only change is a bug, not a baseline refresh.

    PYTHONPATH=src python tests/data/regen_golden_digests.py [--out PATH]

Each cell has two parts, because they are portable to different degrees:

- ``sim`` — the simulator's own determinism: virtual execution time,
  task and remote-message counts, and a sha256 over the trace's span
  sequence. Pure Python over virtual-clock floats, so it is bitwise
  identical on every host. Spans are recorded in completion order, so
  the hash also pins same-instant event ordering. ``metrics_sha256``
  comes from a second run of the cell with the registry on: a sha256 of
  ``result.metrics`` without the ``run.output_checksum`` gauge (a sum
  through the host BLAS), so every series name, label and value the
  emit sites produce is pinned too.
- ``energy`` — the correlation energy of the output tensor. It goes
  through the host BLAS, which rounds differently between builds
  (1-2 ulp), so across hosts it is compared at 1e-13 relative. On *one*
  host it is still bitwise reproducible: ``--out`` at two commits and a
  ``diff`` of the two files checks every field, energies included.
"""

import argparse
import hashlib
import json
from pathlib import Path

from repro.core import api
from repro.core.api import RunConfig, run
from repro.experiments.calibration import cell_config
from repro.sim.cluster import DataMode
from repro.tce.reference import correlation_energy

WORKLOADS = ("t2_7", "ccsd", "rbgs")
RUNTIMES = ("legacy", "v1", "v2", "v3", "v4", "v5", "dtd")
GOLDEN = Path(__file__).parent / "golden_tiny_digests.json"


def trace_sha256(trace) -> str:
    """Hash of the span sequence, in record (= completion) order."""
    digest = hashlib.sha256()
    for span in trace.events:
        row = (
            span.node,
            span.thread,
            span.category.value,
            span.label,
            span.t_start.hex(),
            span.t_end.hex(),
            json.dumps(span.meta, sort_keys=True),
        )
        digest.update(repr(row).encode())
    return digest.hexdigest()


def _config(cache, **fields) -> RunConfig:
    """A 4x2 REAL seed-7 run; with ``cache``, an experiment cell's config
    (``cell_config``) over that memo."""
    if cache is None:
        return RunConfig(n_nodes=4, cores_per_node=2, seed=7, **fields)
    return cell_config(2, 4, DataMode.REAL, seed=7, inspection_cache=cache, **fields)


def metrics_sha256(workload: str, runtime: str, cache=None) -> str:
    """Hash of the metrics snapshot of one tiny run with the registry on."""
    config = _config(cache, metrics=True)
    built = api.build(f"{workload}:tiny", config)
    snapshot = run(built, runtime=runtime, config=config).metrics
    snapshot["gauges"].pop("run.output_checksum")
    return hashlib.sha256(json.dumps(snapshot, sort_keys=True).encode()).hexdigest()


def run_cell(workload: str, runtime: str, cache=None):
    """One traced tiny run; returns ``(cell digest, workload object)``.

    With ``cache`` (an ``InspectionCache``) both runs of the cell build,
    draw, inspect and instantiate through it, as experiment cells do.
    """
    config = _config(cache, trace=True, metrics=False)
    built = api.build(f"{workload}:tiny", config)
    result = run(built, runtime=runtime, config=config)
    cluster = built.cluster
    cell = {
        "sim": {
            "execution_time": result.execution_time.hex(),
            "n_tasks": result.n_tasks,
            "remote_messages": cluster.network.remote_messages,
            "trace_sha256": trace_sha256(cluster.trace),
            "metrics_sha256": metrics_sha256(workload, runtime, cache),
        },
        "energy": correlation_energy(result.output.flat_values()).hex(),
    }
    return cell, built


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=GOLDEN, help=f"output file (default {GOLDEN})"
    )
    args = parser.parse_args()
    digests = {}
    for workload in WORKLOADS:
        digests[workload] = {}
        for runtime in RUNTIMES:
            digests[workload][runtime], _ = run_cell(workload, runtime)
            print(workload, runtime, digests[workload][runtime])
    args.out.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
