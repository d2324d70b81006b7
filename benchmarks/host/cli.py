"""Command line of the host-cost benchmark.

``run`` spawns one fresh child interpreter per workload (and a second,
traced one with ``--traced``), checks every output, prints every metric
by name with its unit, writes a result file, and exits non-zero on any
failed check. With exactly one ``--workload`` the last line of standard
output is the one-object JSON summary the benchmark driver reads.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from . import checks, report
from .catalogue import END_TO_END, PER_LAYER, RUN_SECONDS, SCOPED, WORKLOADS, manifest
from .compare import compare_files

ROOT = report.ROOT
OUT_DIR = Path(__file__).with_name("out")
DEFAULT_SEED = 7

#: what every child runs under, so BLAS threads and hash order cannot move
#: a timing
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: the driver allows a run 180 s; leave room to report
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def _spawn_child(
    workload: str, size: str, seed: int, traced: bool, deadline: float
) -> dict:
    """Run one workload in a fresh interpreter; returns its result dict."""
    OUT_DIR.mkdir(exist_ok=True)
    result_path = OUT_DIR / f"child_{os.getpid()}_{workload}_{int(traced)}.json"
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    command = [sys.executable, "-m", "benchmarks.host", "child"]
    command += ["--workload", workload, "--size", size, "--seed", str(seed)]
    command += ["--traced", str(int(traced)), "--result", str(result_path)]
    command += ["--spawned-at", repr(time.perf_counter())]
    proc = subprocess.Popen(command, cwd=ROOT, env=env)
    try:
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            # SIGTERM first: the child's handler tears the workload down
            # (stops the serve daemon) before it exits
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            raise ChildFailed(f"{workload}: ran past the deadline") from None
        if code != 0 or not result_path.exists():
            raise ChildFailed(f"{workload}: child exited with code {code}")
        return json.loads(result_path.read_text())
    finally:
        result_path.unlink(missing_ok=True)


def measure(
    workload: str,
    size: str,
    seed: int,
    traced: bool,
    expected: Optional[dict],
    deadline: float,
) -> dict:
    """One workload: the untraced run, optionally the traced run, all
    checks (``expected=None`` skips the ``expected.json`` comparison)."""
    untraced = _spawn_child(workload, size, seed, False, deadline)
    if expected is not None:
        checks.apply_expected(untraced, expected)
    entry = {
        "workload": workload,
        "untraced": untraced,
        "traced": None,
        "end_to_end": report.end_to_end(untraced),
        "scoped": report.scoped(untraced),
    }
    results = [untraced]
    if traced:
        second = _spawn_child(workload, size, seed, True, deadline)
        if expected is not None:
            checks.apply_expected(second, expected)
        match = checks.apply_stepwise(second, untraced)
        entry["traced"] = second
        entry["per_layer"] = report.per_layer(untraced, second, match)
        results.append(second)
    entry["attempted"] = sum(len(r["ops"]) for r in results)
    entry["failed"] = sum(len(checks.failed_ops(r)) for r in results)
    return entry


def cmd_run(args: argparse.Namespace) -> int:
    started = time.monotonic()
    wall_started = time.time()
    names = args.workload or list(WORKLOADS)
    traced = args.traced or args.trace == 1
    size = args.size or ("smoke" if args.seconds < 5 else "full")
    expected = checks.load_expected(Path(args.expected))
    entries = []
    for name in [n for n in names for _ in range(args.repeat)]:
        # the driver's 180 s limit is per invocation, and it invokes one
        # workload at a time; a multi-workload run gets the time per workload
        deadline = time.monotonic() + DEADLINE_S
        if len(names) == 1:
            deadline = started + DEADLINE_S
        try:
            entry = measure(name, size, args.seed, traced, expected, deadline)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report.print_workload(entry)
        entries.append(entry)

    first = entries[0]["untraced"]
    document = {
        "provenance": report.provenance(PINNED_ENV, args.seed, first["versions"]),
        "size": size,
        "traced": traced,
        "invocation_wall_s": time.time() - wall_started,
        "workloads": entries,
    }
    out_path = Path(args.out) if args.out else OUT_DIR / "last_run.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(document, indent=1))
    attempted = sum(e["attempted"] for e in entries)
    failed = sum(e["failed"] for e in entries)
    print(f"\n{attempted} ops attempted, {failed} failed; result file {out_path}")
    if len(entries) == 1:
        entry = entries[0]
        if traced:
            values = {**entry["scoped"], **entry["per_layer"]}
            metrics = report.driver_metrics(values, SCOPED + PER_LAYER)
        else:
            metrics = report.driver_metrics(entry["end_to_end"], END_TO_END)
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": metrics,
                }
            )
        )
    return 0 if failed == 0 else 1


def cmd_child(args: argparse.Namespace) -> int:
    from .child import run_child

    def on_sigterm(signum, frame):
        raise SystemExit(1)  # unwinds through the workload's teardown

    signal.signal(signal.SIGTERM, on_sigterm)
    run_child(
        args.workload,
        args.size,
        args.seed,
        bool(args.traced),
        args.spawned_at,
        Path(args.result),
        OUT_DIR,
    )
    return 0


def cmd_regen_expected(args: argparse.Namespace) -> int:
    """Mint ``expected.json`` from the default seed: both sizes, untraced
    and traced, refusing if any built-in check or the stepwise match fails."""
    document: dict = {}
    for size in ("smoke", "full"):
        document[size] = {}
        for name in WORKLOADS:
            deadline = time.monotonic() + DEADLINE_S
            entry = measure(name, size, DEFAULT_SEED, True, None, deadline)
            bad = checks.failed_ops(entry["untraced"]) + checks.failed_ops(
                entry["traced"]
            )
            if bad:
                print(f"{name} ({size}): failed ops {[op['id'] for op in bad]}")
                return 1
            document[size][name] = checks.merged_expected(
                entry["untraced"], entry["traced"]
            )
            print(f"{name} ({size}): {len(document[size][name])} ops")
    text = json.dumps(document, indent=1, sort_keys=True)
    Path(args.expected).write_text(text + "\n")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    return compare_files(Path(args.a), Path(args.b))


def cmd_manifest(args: argparse.Namespace) -> int:
    print(json.dumps(manifest(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.host", description=__doc__.split("\n\n")[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run workloads, check outputs, print metrics")
    p.add_argument("--workload", action="append", choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--traced", action="store_true", help="also do the traced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="as --traced")
    p.add_argument(
        "--seconds",
        type=int,
        default=RUN_SECONDS,
        help="run budget; the body is fixed work sized to the default, and a "
        "budget under 5 s selects the smoke preset",
    )
    p.add_argument("--size", choices=("full", "smoke"))
    p.add_argument("--repeat", type=int, default=1, help="runs per workload")
    p.add_argument("--out", help="result file (default: out/last_run.json)")
    p.add_argument("--expected", default=str(checks.EXPECTED_PATH))
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("child", help="(internal) one workload in this process")
    p.add_argument("--workload", required=True)
    p.add_argument("--size", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--traced", type=int, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.set_defaults(func=cmd_child)

    p = sub.add_parser("regen-expected", help="rewrite expected.json (default seed)")
    p.add_argument("--expected", default=str(checks.EXPECTED_PATH))
    p.set_defaults(func=cmd_regen_expected)

    p = sub.add_parser("compare", help="compare two result files")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("manifest", help="print BENCHMARK.json from the catalogue")
    p.set_defaults(func=cmd_manifest)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
