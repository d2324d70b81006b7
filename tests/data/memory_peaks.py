"""Host memory of one run per runtime, each in a fresh interpreter.

    PYTHONPATH=src python tests/data/memory_peaks.py [--out PATH] [--rss-cap-mb N]

Prints (and with ``--out`` writes) the ``tracemalloc`` peak of
``repro.run("ccsd:tiny")`` REAL on 4x2 for legacy, v5 and dtd. A task
runtime should need about what the legacy runtime needs — the tensors —
because a payload dies with its last consumer and a runtime with its
level (DESIGN.md, "Memory model"); ``tests/parsec/test_memory_model.py``
holds the ratio. Every measurement is a child process: the first run in
an interpreter pays ~16 MB of one-off allocations, which flatters
whoever runs second.

``--rss-cap-mb`` adds the figure the host benchmark reports: peak RSS
(``ru_maxrss``) of a ``ccsd:small`` REAL v5 run on 8x4, and exits 1 when
it is over the cap.
"""

import argparse
import json
import resource
import subprocess
import sys
import tracemalloc

RUNTIMES = ("legacy", "v5", "dtd")


def _child(what: str, token: str, runtime: str, n_nodes: int, cores: int) -> None:
    from repro.core.api import RunConfig, run

    config = RunConfig(n_nodes=n_nodes, cores_per_node=cores)
    if what == "tracemalloc":
        tracemalloc.start()
        run(token, runtime=runtime, config=config)
        print(tracemalloc.get_traced_memory()[1] / 1e6)
    else:  # untraced: tracemalloc's own tables would count
        run(token, runtime=runtime, config=config)
        # Linux reports ru_maxrss in KiB
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


def measure(what: str, token: str, runtime: str, n_nodes: int, cores: int) -> float:
    """MB of one run in a child: ``what`` is ``tracemalloc`` (peak traced)
    or ``maxrss`` (the child's ``ru_maxrss``)."""
    out = subprocess.run(
        [sys.executable, __file__, "--child", what, token, runtime,
         str(n_nodes), str(cores)],
        check=True,
        capture_output=True,
        text=True,
        timeout=600,
    ).stdout
    return round(float(out.splitlines()[-1]), 1)


def tracemalloc_peaks() -> dict:
    """Peak traced MB of ``ccsd:tiny`` REAL 4x2 per runtime."""
    return {
        runtime: measure("tracemalloc", "ccsd:tiny", runtime, 4, 2)
        for runtime in RUNTIMES
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    parser.add_argument("--rss-cap-mb", type=float)
    parser.add_argument("--child", nargs=5, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        what, token, runtime, n_nodes, cores = args.child
        _child(what, token, runtime, int(n_nodes), int(cores))
        return 0
    report: dict = {"ccsd_tiny_tracemalloc_peak_mb": tracemalloc_peaks()}
    status = 0
    if args.rss_cap_mb is not None:
        rss = measure("maxrss", "ccsd:small", "v5", 8, 4)
        report["ccsd_small_v5_maxrss_mb"] = rss
        report["rss_cap_mb"] = args.rss_cap_mb
        status = int(rss > args.rss_cap_mb)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
