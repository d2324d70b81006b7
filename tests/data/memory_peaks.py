"""Host memory of one run per runtime, each in a fresh interpreter.

    PYTHONPATH=src python tests/data/memory_peaks.py [--out PATH] [--rss-cap-mb N]

Prints (and with ``--out`` writes) the ``tracemalloc`` peak of
``repro.run("ccsd:tiny")`` REAL on 4x2 for legacy, v5 and dtd. A task
runtime should need about what the legacy runtime needs — the tensors —
because a payload dies with its last consumer and a runtime with its
level (DESIGN.md, "Memory model"); ``tests/parsec/test_memory_model.py``
holds the ratio. Every measurement is a child process: the first run in
an interpreter leaves ~1 MB of one-off allocations resident (lazy
imports, the inspector's process memo), which a second run in the same
traced window would count and one traced alone would not. (It was
~15 MB while ``repro.analysis`` re-exported its networkx module: the
report step of every run imported networkx inside the traced window,
and the three peaks read 18.7 / 18.8 / 18.7 MB — the import, not the
runtimes. Without it they read 4.5 / 5.5 / 5.0 MB.)

``--rss-cap-mb`` adds two ``ccsd:small`` REAL 8x4 figures. The one the
host benchmark reports: peak RSS (``ru_maxrss``) of a standalone v5 run;
exit 1 when it is over the cap. And the build-and-drop figure: resident
memory (Linux ``/proc/self/statm``) after each of four rounds of building
the workload and dropping it, cyclic collector off. A workload's tensors
die with the last reference to the workload (same section), so round
four stands where round one stood. (Current, not peak, RSS, read after
``malloc_trim(0)``: glibc raises its mmap threshold after the first
round's frees, so later rounds' tensors come from the heap, and what it
keeps of that heap once they are freed is not the program's — untrimmed,
round one read 140 or 51 MB by the allocation pattern alone, and rounds
three on 8 MB above round two. Trimmed, rounds one to four read
48.8 / 50.9 / 52.0 / 53.1 MB, the ~1.1 MB per round being the cluster
skeleton the disabled collector leaves; at the parent of the rule they
read 139 / 232 / 324 / 416, 3.0x. ``ccsd:tiny`` is too small to tell:
1.12x at the parent of that rule, 1.02x with it.)
And the run-and-drop figure, same reading: four rounds of
``repro.run("rbgs:24x24")`` on 16x4 for v5 and dtd, each result dropped
at once. A level's graph dies at shutdown and a process with its last
step, both by reference count, so the rounds do not add up: round four
stands within 1.10x of round *two*; exit 1 when it does not. (Round one
is not the base: the first dropped run leaves ~2k cluster-skeleton
objects and ~7k one-off cache blocks scattered over the 1 MiB pymalloc
arenas its graph had filled, which keeps 5-9 MB of them resident from
round two on, and the same happens with a full ``gc.collect()`` after
every round. Where finished transfers and shut-down runtimes wait for a
collector, every round adds 10-13 MB of its own: 1.26x / 1.30x.)
"""

import argparse
import ctypes
import gc
import json
import os
import resource
import subprocess
import sys
import tracemalloc

RUNTIMES = ("legacy", "v5", "dtd")
BUILD_AND_DROP_ROUNDS = 4
RUN_AND_DROP_GROWTH = 1.10


def _maxrss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _trimmed_rss_mb() -> float:
    """Resident MB once the allocator has returned its free heap."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)  # glibc only
    if trim is not None:
        trim(0)
    return _rss_mb()


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _child(what: str, token: str, runtime: str, n_nodes: int, cores: int) -> None:
    from repro.core.api import RunConfig, build, run

    config = RunConfig(n_nodes=n_nodes, cores_per_node=cores)
    if what == "tracemalloc":
        tracemalloc.start()
        run(token, runtime=runtime, config=config)
        print(tracemalloc.get_traced_memory()[1] / 1e6)
    elif what in ("build_and_drop", "run_and_drop"):
        gc.disable()
        rounds = []
        for _ in range(BUILD_AND_DROP_ROUNDS):
            # either way the result is dropped at once
            if what == "build_and_drop":
                build(token, config)
                rounds.append(_trimmed_rss_mb())
            else:
                run(token, runtime=runtime, config=config)
                rounds.append(_rss_mb())
        print(json.dumps(rounds))
    else:  # untraced: tracemalloc's own tables would count
        run(token, runtime=runtime, config=config)
        print(_maxrss_mb())


def measure(what: str, token: str, runtime: str, n_nodes: int, cores: int):
    """MB of one child: ``what`` is ``tracemalloc`` (peak traced) or
    ``maxrss`` (the child's ``ru_maxrss``) of one run, or
    ``build_and_drop`` / ``run_and_drop`` (resident MB after each round,
    a list)."""
    out = subprocess.run(
        [sys.executable, __file__, "--child", what, token, runtime,
         str(n_nodes), str(cores)],
        check=True,
        capture_output=True,
        text=True,
        timeout=600,
    ).stdout
    return json.loads(out.splitlines()[-1], parse_float=lambda s: round(float(s), 1))


def build_and_drop(token: str, n_nodes: int, cores: int) -> list:
    """Resident MB after each build-and-drop round of ``token``."""
    return measure("build_and_drop", token, "-", n_nodes, cores)


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
        report["ccsd_small_build_and_drop_rss_mb"] = build_and_drop(
            "ccsd:small", 8, 4
        )
        report["rss_cap_mb"] = args.rss_cap_mb
        rounds = report["rbgs_24x24_run_and_drop_rss_mb"] = {
            runtime: measure("run_and_drop", "rbgs:24x24", runtime, 16, 4)
            for runtime in ("v5", "dtd")
        }
        grew = any(r[-1] > RUN_AND_DROP_GROWTH * r[1] for r in rounds.values())
        status = int(rss > args.rss_cap_mb or grew)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
