"""Command-line driver: ``python -m repro <experiment> [options]``.

Subcommands regenerate the paper's artifacts without pytest (the first
five run declared experiments, :mod:`repro.experiments.claims`):

- ``fig9``        the Figure 9 sweep + shape checks
- ``traces``      Figures 10/11 and 12/13 with ASCII Gantt charts
- ``equivalence`` the Section IV-A 14-digit agreement check
- ``ablations``   the design-decision sweeps (``--comm``: comm knobs)
- ``chaos``       fault-injection sweep: bitwise recovery check
- ``report``      run any runtime/variant, emit a structured RunReport
- ``perf``        fig9-style sweep, equal to a committed BENCH baseline
- ``info``        workload/scale/machine summary

The simulation service adds five more:

- ``serve``       long-lived daemon executing submitted jobs (journaled,
  crash-recoverable, ``--workers N`` jobs concurrently; see README
  "Simulation service")
- ``submit``      send a job to a running daemon (``--priority`` biases
  which queued job a free worker picks first)
- ``status``      one job's status, or the daemon overview
- ``result``      fetch (optionally wait for) a job's result
- ``watch``       stream a job's progress events (one JSON line per
  started/cell/finished event) until it completes

Exit codes are uniform across subcommands: ``0`` for success (including
informational runs at non-paper scales), ``1`` when a declared check
fails (an experiment's claims, or a perf grid that differs from its
baseline) or a service request cannot be satisfied, ``2`` for
usage/configuration errors (argparse rejections and invalid sweep
configuration such as an unknown scale), and ``130`` when interrupted
with Ctrl-C (the conventional 128+SIGINT; a ``serve`` daemon flushes
its journal before exiting, so interrupted work resumes on restart).

The sweep subcommands (``fig9``, ``perf``, ``chaos``) accept
``--jobs/-j N`` to fan their independent grid cells out over worker
processes; per-cell progress goes to stderr and results are merged
deterministically, so the output is byte-identical at any job count.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

#: the run completed and every evaluated check passed (or the run was
#: informational at its scale)
EXIT_OK = 0
#: the run completed but a declared check failed
EXIT_CHECK_FAILED = 1
#: invalid usage/configuration (argparse uses the same code)
EXIT_USAGE = 2
#: interrupted by Ctrl-C (the shell convention: 128 + SIGINT)
EXIT_INTERRUPTED = 130

#: default port of the ``repro serve`` daemon
DEFAULT_SERVE_PORT = 8642


#: Every option more than one subcommand takes, declared once (the flag
#: is ``--<name>``). A subcommand lists the names it takes
#: (:func:`_options`) and overrides only a default or the help.
_OPTIONS: dict[str, dict] = {
    "scale": dict(
        default="paper",
        choices=["tiny", "small", "paper", "full"],
        help="workload scale preset (default: %(default)s)",
    ),
    "workload": dict(
        default="t2_7",
        metavar="NAME[:PARAMS]",
        help=(
            "registered workload name or full 'name:params' token "
            "(default: %(default)s; an explicit token overrides --scale; "
            "see `python -m repro info` for the registry)"
        ),
    ),
    "jobs": dict(
        type=int,
        default=1,
        help=(
            "worker processes for the sweep (default: 1 = serial; 0 = one "
            "per CPU). Results are byte-identical at any job count."
        ),
    ),
    "stealing": dict(
        action="store_true",
        help=(
            "inter-node work stealing on the codes that read it (`repro "
            "info` prints which); a sweep where none does exits 2"
        ),
    ),
    "nodes": dict(type=int, default=4, help="nodes in the allocation"),
    "cores": dict(type=int, default=2, help="compute cores per node"),
    "out": dict(default=None),
    "host": dict(default="127.0.0.1", help="daemon host"),
    "port": dict(type=int, default=DEFAULT_SERVE_PORT, help="daemon port"),
    "wait": dict(action="store_true", help="block until the job finishes"),
    "timeout": dict(type=float, default=300.0, help="--wait limit in seconds"),
}


def _options(parser: argparse.ArgumentParser, *names: str, **overrides: dict) -> None:
    """Add the shared options ``names``; ``overrides[name]`` replaces
    individual argparse keywords (a default, the help text)."""
    for name in names:
        flags = ("--jobs", "-j") if name == "jobs" else (f"--{name}",)
        parser.add_argument(*flags, **{**_OPTIONS[name], **overrides.get(name, {})})


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run the subcommand's declared experiments, each on the options
    named after its parameters. The exit code is their claims, unless a
    note says why they are informational here."""
    from repro.experiments.claims import experiment
    from repro.experiments.sweep import default_progress

    jobs = getattr(args, "jobs", 1)
    reports, checks, summaries, note = [], [], [], None
    for name in args.experiments:
        declared = experiment(name)
        params = {k: v for k, v in vars(args).items() if k in declared.defaults}
        result, stats = declared.run(jobs, default_progress, **params)
        reports.append(declared.report(result))
        checks += declared.claims(result)
        summaries.append(stats.summary())
        note = note or declared.note(**params)
    report = "\n\n".join(reports)
    print(report)
    if getattr(args, "out", None):
        Path(args.out).write_text(report + "\n")
        print(f"report written to {args.out}")
    for summary in summaries:
        print(f"\n{summary}")
    if note:
        print(f"\nnote: the shape checks {note} are informational only.")
        return EXIT_OK
    return EXIT_OK if all(check.passed for check in checks) else EXIT_CHECK_FAILED


def cmd_report(args: argparse.Namespace) -> int:
    """Run the selected runtimes and emit structured RunReports."""
    from repro.analysis.run_report import render_run_report
    from repro.core.api import RunConfig, run
    from repro.obs.report import write_jsonl
    from repro.sim.cluster import DataMode
    from repro.workloads import canonical_token

    # REAL data end to end at the small scales (enables the output
    # checksum); costs-only SYNTH where REAL tensors would not fit
    data_mode = DataMode.REAL if args.scale in ("tiny", "small") else DataMode.SYNTH
    config = RunConfig(
        n_nodes=args.nodes,
        cores_per_node=args.cores,
        data_mode=data_mode,
        trace=not args.no_trace,
        metrics=True,
        seed=args.seed,
    )
    runtimes = ["legacy", "v5"] if args.runtime == "both" else [args.runtime]
    token = canonical_token(args.workload, scale=args.scale)
    reports = []
    for runtime in runtimes:
        # metrics=True: the facade always attaches a report
        report = run(token, runtime=runtime, config=config).report
        reports.append(report)
        print(render_run_report(report))
        print()
    if args.out:
        path = write_jsonl(reports, args.out)
        print(f"wrote {len(reports)} report(s) to {path}")
    else:
        for report in reports:
            print(report.to_json_line())
    return EXIT_OK


def cmd_perf(args: argparse.Namespace) -> int:
    """Run the perf sweep, write it as BENCH JSON, and pass only when it
    equals the committed baseline."""
    from repro.analysis.report import format_table
    from repro.experiments.fig9 import Fig9Result
    from repro.experiments.perf import baseline_mismatches, baseline_path, run_perf
    from repro.experiments.sweep import default_progress
    from repro.util.errors import ConfigurationError

    if args.stealing and args.update_baseline:
        raise ConfigurationError(
            "a --stealing sweep cannot be a static baseline; "
            "drop --stealing or --update-baseline"
        )
    new = run_perf(
        scale=args.scale,
        jobs=args.jobs,
        progress=default_progress,
        stealing=args.stealing,
        workload=args.workload,
    )
    committed_path = baseline_path(args.scale, workload=args.workload)
    # same file name as the committed baseline, in the working directory
    suffix = "_stealing" if args.stealing else ""
    out = args.out or Path(committed_path.name).with_stem(committed_path.stem + suffix)
    print(f"wrote {new.write(out)}")
    print(
        format_table(
            ["code"] + [f"{c} cores" for c in new.core_counts],
            [
                [code] + [f"{new.times[code][c]:.6f}" for c in new.core_counts]
                for code in sorted(new.times)
            ],
            title=(
                f"fig9 perf sweep: scale={new.scale}, {new.n_nodes} nodes "
                "(virtual seconds)"
            ),
        )
    )
    print(f"\n{new.sweep_stats.summary()}")
    if args.stealing:
        print("\nstealing sweep: not comparable to the static baselines; no gate")
        return EXIT_OK
    if args.update_baseline:
        print(f"updated committed baseline {new.write(committed_path)}")
        return EXIT_OK
    baseline_file = Path(args.baseline or committed_path)
    if not baseline_file.exists():
        print(
            f"\nno committed baseline at {baseline_file}; skipping the "
            "baseline gate (use --update-baseline to create one)"
        )
        return EXIT_OK
    try:
        old = Fig9Result.read(baseline_file)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    mismatches = baseline_mismatches(old, new)
    print(f"\nbaseline: {baseline_file}")
    for line in mismatches:
        print(f"MISMATCH {line}")
    if mismatches:
        return EXIT_CHECK_FAILED
    print("identical to the baseline")
    return EXIT_OK


def _parse_params(pairs: list[str]) -> dict:
    """``key=value`` pairs to a params dict; values parse as JSON when
    they can (so ``cores=4``, ``stealing=true``, ``codes=["v5"]`` all
    work) and fall back to plain strings (``scale=tiny``)."""
    import json

    from repro.util.errors import ConfigurationError

    params = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigurationError(f"--param expects key=value, got {pair!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the daemon until SIGTERM/SIGINT. ``daemon.stop()`` kills the
    pool processes; the exit still goes through os._exit so a worker
    thread wedged in a cell of its own (``--jobs 1``) cannot hang the
    interpreter's atexit joins (the journal is fsynced per event —
    nothing is lost)."""
    import os
    import signal
    import traceback

    from repro.serve.daemon import ServeDaemon

    daemon = ServeDaemon(
        journal_path=args.journal,
        host=args.host,
        port=args.port,
        workers=args.workers,
        pool_jobs=args.jobs,
        compact_bytes=args.compact_bytes,
    )

    def _on_sigterm(signum, frame):
        raise SystemExit(EXIT_OK)

    signal.signal(signal.SIGTERM, _on_sigterm)
    rc = EXIT_OK
    try:
        # a signal from here on lands in the finally: stop() never waits
        # for an HTTP loop that did not start
        daemon.start()
        recovered = daemon.recovered
        if recovered.jobs:
            print(
                f"journal replay: {len(recovered.jobs)} job(s), "
                f"{len(recovered.pending)} requeued, "
                f"{len(recovered.done)} done",
                file=sys.stderr,
            )
        if daemon.corrupt_lines:
            print(
                f"journal replay skipped {daemon.corrupt_lines} corrupt "
                f"line(s)",
                file=sys.stderr,
            )
        print(f"serving on {daemon.host}:{daemon.port}", flush=True)
        daemon.serve_forever()
    except KeyboardInterrupt:
        rc = EXIT_INTERRUPTED
    except SystemExit as exc:
        rc = int(exc.code or 0)
    except Exception:  # os._exit below would swallow it
        traceback.print_exc()
        rc = EXIT_CHECK_FAILED
    finally:
        daemon.stop()
        print("daemon stopped; journal flushed", file=sys.stderr)
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(rc)
    return rc  # pragma: no cover - os._exit above


def _client(args: argparse.Namespace):
    from repro.serve.client import ServiceClient

    return ServiceClient(host=args.host, port=args.port)


def _print_json(body: dict) -> None:
    import json

    print(json.dumps(body, indent=2, sort_keys=True))


def _service_command(command):
    """The four client subcommands' one mapping of service errors to exit
    codes (a decorator, so only they pay the ``repro.serve`` import)."""

    def run(args: argparse.Namespace) -> int:
        from repro.serve.client import ServiceError, ServiceUnavailable

        try:
            return command(args)
        except ServiceUnavailable as exc:
            print(
                f"rejected: {exc} (retry after {exc.retry_after_s}s)",
                file=sys.stderr,
            )
            return EXIT_CHECK_FAILED
        except ServiceError as exc:
            # a 400 is the daemon rejecting a malformed spec: a usage error
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE if exc.status == 400 else EXIT_CHECK_FAILED

    return run


@_service_command
def cmd_submit(args: argparse.Namespace) -> int:
    client = _client(args)
    params = _parse_params(args.param)
    if args.priority:
        params["priority"] = args.priority
    body = client.submit(args.kind, params)
    if args.wait:
        body = client.watch(body["job_id"], timeout_s=args.timeout)
    _print_json(body)
    return EXIT_OK


@_service_command
def cmd_status(args: argparse.Namespace) -> int:
    client = _client(args)
    _print_json(client.status(args.job_id) if args.job_id else client.overview())
    return EXIT_OK


@_service_command
def cmd_result(args: argparse.Namespace) -> int:
    client = _client(args)
    if args.wait:
        body = client.watch(args.job_id, timeout_s=args.timeout)
    else:
        body = client.result(args.job_id)
    _print_json(body)
    if body.get("status") in ("queued", "running"):
        return EXIT_CHECK_FAILED  # asked for a result that isn't ready
    return EXIT_OK


@_service_command
def cmd_watch(args: argparse.Namespace) -> int:
    """Stream one job's progress events to stdout as JSON lines."""
    import json

    client = _client(args)
    final_status = None
    for event in client.events(args.job_id, since=args.since):
        print(json.dumps(event, sort_keys=True), flush=True)
        if event.get("type") == "finished":
            final_status = event.get("status")
    if final_status is None:
        # stream closed without a visible finish (e.g. watching a
        # job recovered from a journal replay): ask once
        final_status = client.status(args.job_id).get("status")
    return EXIT_OK if final_status == "done" else EXIT_CHECK_FAILED


def cmd_info(args: argparse.Namespace) -> int:
    from repro.core import api
    from repro.experiments.calibration import PAPER_MACHINE, cell_config
    from repro.tce.molecules import SCALE_PRESETS
    from repro.workloads import canonical_token, workload_names, workload_spec

    print("scale presets:")
    for name, system in SCALE_PRESETS.items():
        print(
            f"  {name:6s} {system.name}: nocc={system.nocc} nvirt={system.nvirt} "
            f"tile={system.tile_size} ({system.n_basis} basis functions)"
        )
    print("\nregistered workloads (use --workload name[:params]):")
    for name in workload_names():
        print(f"  {name:6s} {workload_spec(name).summary}")
    token = canonical_token(args.workload, scale=args.scale)
    workload = api.build(token, cell_config(1, n_nodes=4))
    print(f"\nworkload {token}: {workload.describe()}")
    print(f"\ncalibrated machine: {PAPER_MACHINE}")
    print("\nwhich runtime reads which knob (any other refuses it):")
    print(api.knob_table())
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce 'PaRSEC in Practice' (CLUSTER 2015) experiments.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("fig9", help="Figure 9 sweep + shape checks")
    _options(p, "scale", "workload", "jobs", "stealing")
    p.add_argument(
        "--skew-factor",
        type=int,
        default=1,
        help="imbalance knob: repeat selected chains this many times",
    )
    p.add_argument(
        "--skew-period",
        type=int,
        default=0,
        help="skew chains whose id is a multiple of this (0 = no skew)",
    )
    p.set_defaults(func=cmd_experiment, experiments=("fig9",))

    p = subparsers.add_parser("traces", help="Figures 10-13 ASCII traces")
    _options(p, "scale", scale=dict(default="small"))
    p.set_defaults(func=cmd_experiment, experiments=("fig10_11", "fig12_13"))

    p = subparsers.add_parser("equivalence", help="14-digit agreement check")
    _options(p, "scale", "workload", scale=dict(default="small"))
    p.set_defaults(func=cmd_experiment, experiments=("equivalence",))

    p = subparsers.add_parser("ablations", help="design-decision sweeps")
    _options(p, "scale", "out", out=dict(help="also write the printed report"))
    p.add_argument(
        "--comm",
        action="store_const",
        dest="experiments",
        const=("comm",),
        default=("ablations",),
        help="run only the one-sided comm knob matrix "
        "(coalescing × remote-block cache) with bitwise equality checks",
    )
    p.add_argument(
        "--workloads",
        nargs="+",
        default=["t2_7", "ccsd", "rbgs"],
        choices=["t2_7", "ccsd", "rbgs"],
        help="workloads for the --comm matrix (default: all three)",
    )
    p.set_defaults(func=cmd_experiment)

    p = subparsers.add_parser("chaos", help="fault-injection recovery sweep")
    _options(
        p,
        "scale",
        "workload",
        "nodes",
        "cores",
        "stealing",
        "jobs",
        scale=dict(default="tiny"),
        nodes=dict(dest="n_nodes", metavar="NODES"),
        cores=dict(dest="cores_per_node", metavar="CORES"),
    )
    p.add_argument(
        "--fault-seed", type=int, default=2025, help="master seed of the fault plan"
    )
    p.add_argument(
        "--codes",
        nargs="+",
        default=None,
        metavar="CODE",
        help="restrict the sweep to these runners (default: all six)",
    )
    p.set_defaults(func=cmd_experiment, experiments=("chaos",))

    p = subparsers.add_parser(
        "report", help="run a runtime/variant, emit a structured RunReport"
    )
    _options(
        p,
        "scale",
        "workload",
        "nodes",
        "cores",
        "out",
        scale=dict(default="tiny"),
        out=dict(help="write reports to this JSONL file"),
    )
    p.add_argument(
        "--runtime",
        default="both",
        choices=["both", "legacy", "original", "parsec", "dtd", "v1", "v2", "v3", "v4", "v5"],
        help="what to run (default: both = legacy + PaRSEC v5)",
    )
    p.add_argument("--seed", type=int, default=7, help="workload data seed")
    p.add_argument(
        "--no-trace", action="store_true", help="skip tracing (no trace stats)"
    )
    p.set_defaults(func=cmd_report)

    p = subparsers.add_parser(
        "perf", help="fig9-style perf sweep vs committed BENCH baseline"
    )
    _options(
        p,
        "scale",
        "workload",
        "out",
        "stealing",
        "jobs",
        scale=dict(default="tiny"),
        out=dict(help="where to write the fresh BENCH JSON"),
        stealing=dict(
            help=(
                "sweep with inter-node work stealing on the codes that read "
                "it; writes a _stealing BENCH file and skips the (static) "
                "baseline gate"
            )
        ),
    )
    p.add_argument(
        "--baseline", default=None, help="baseline JSON to compare against"
    )
    p.add_argument(
        "--update-baseline",
        action="store_true",
        help="overwrite the committed baseline with this sweep",
    )
    p.set_defaults(func=cmd_perf)

    p = subparsers.add_parser("info", help="workload and machine summary")
    _options(p, "scale", "workload")
    p.set_defaults(func=cmd_info)

    p = subparsers.add_parser(
        "serve", help="run the simulation service daemon"
    )
    _options(
        p,
        "host",
        "port",
        "jobs",
        jobs=dict(
            default=2,
            help=(
                "simulation processes, split evenly over the --workers: "
                "each worker keeps a warm pool of max(1, N // workers) for "
                "the daemon's life and runs every cell of its jobs there "
                "(default: 2; 1 = no pools, cells run in the daemon's "
                "threads; below 1 is refused)"
            ),
        ),
    )
    p.add_argument(
        "--journal",
        default="serve_journal.jsonl",
        help="append-only JSONL event store (jobs survive restarts)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="jobs executed simultaneously (default: 1)",
    )
    p.add_argument(
        "--compact-bytes",
        type=int,
        default=262144,
        help=(
            "compact the journal into a snapshot once it exceeds this "
            "many bytes (0 disables the size trigger; clean shutdown "
            "always compacts)"
        ),
    )
    p.set_defaults(func=cmd_serve)

    p = subparsers.add_parser("submit", help="submit a job to the daemon")
    _options(p, "host", "port", "wait", "timeout")
    p.add_argument(
        "kind", choices=["point", "fig9", "chaos"], help="job kind"
    )
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "job parameter; values parse as JSON when possible "
            '(e.g. --param cores=4 --param codes=\'["v5"]\')'
        ),
    )
    p.add_argument(
        "--priority",
        type=int,
        default=0,
        help=(
            "scheduling priority (higher runs first; queued jobs age "
            "upward so nothing starves). Not part of the job's digest."
        ),
    )
    p.set_defaults(func=cmd_submit)

    p = subparsers.add_parser(
        "status", help="job status (or daemon overview without a job id)"
    )
    _options(p, "host", "port")
    p.add_argument("job_id", nargs="?", default=None, help="job to inspect")
    p.set_defaults(func=cmd_status)

    p = subparsers.add_parser("result", help="fetch a job's result")
    _options(p, "host", "port", "wait", "timeout")
    p.add_argument("job_id", help="job to fetch")
    p.set_defaults(func=cmd_result)

    p = subparsers.add_parser(
        "watch", help="stream a job's progress events until it finishes"
    )
    _options(p, "host", "port")
    p.add_argument("job_id", help="job to follow")
    p.add_argument(
        "--since",
        type=int,
        default=0,
        help="resume after the N-th event (skip what you already saw)",
    )
    p.set_defaults(func=cmd_watch)

    args = parser.parse_args(argv)
    from repro.util.errors import ConfigurationError, StallError

    try:
        return args.func(args)
    except ConfigurationError as exc:
        # unknown workload/runtime/scale names are usage errors, the
        # same class argparse reports — map them to the same exit code
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StallError as exc:
        # a simulation that quiesced unfinished is a failed run, not a
        # usage error: the headline (and the fault report, if a plan was
        # installed) on one line; the per-node diagnostic stays in the
        # exception for library callers
        line = str(exc).splitlines()[0]
        if exc.report is not None:
            line += f" [fault report: {exc.report.summary()}]"
        print(f"error: {line}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except KeyboardInterrupt:
        # conventional 128 + SIGINT; partial output may already be on
        # stdout, the marker goes to stderr
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
