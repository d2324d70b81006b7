"""Command-line driver: ``python -m repro <experiment> [options]``.

Subcommands regenerate the paper's artifacts without pytest:

- ``fig9``        the Figure 9 sweep + shape checks
- ``traces``      Figures 10/11 and 12/13 with ASCII Gantt charts
- ``equivalence`` the Section IV-A 14-digit agreement check
- ``ablations``   the design-decision sweeps
- ``chaos``       fault-injection sweep: bitwise recovery check
- ``report``      run any runtime/variant, emit a structured RunReport
- ``perf``        fig9-style sweep vs a committed BENCH baseline
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
fails (shape checks at paper scale, equivalence digits, chaos recovery,
perf regressions) or a service request cannot be satisfied, ``2`` for
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
        help="run the PaRSEC codes with inter-node work stealing",
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


def cmd_fig9(args: argparse.Namespace) -> int:
    from repro.experiments.fig9 import fig9_shape_checks, run_fig9
    from repro.experiments.sweep import default_progress

    result = run_fig9(
        scale=args.scale,
        jobs=args.jobs,
        progress=default_progress,
        stealing=args.stealing,
        skew_factor=args.skew_factor,
        skew_period=args.skew_period,
        workload=args.workload,
    )
    print(result.table())
    print()
    print(result.chart())
    print()
    print(result.summary_table())
    print()
    failed = 0
    for check in fig9_shape_checks(result):
        status = "SKIP" if check.skipped else ("PASS" if check.passed else "FAIL")
        failed += not check.passed
        print(f"[{status}] {check.name}: {check.detail}")
    print(f"\n{result.sweep_stats.summary()}")
    # the checks are the paper's claims about one configuration; anywhere
    # else they are printed but do not decide the exit code
    informational = None
    if args.stealing or args.skew_factor > 1:
        informational = (
            "describe the paper's static, unskewed configuration; with "
            "--stealing/--skew-factor they"
        )
    elif args.workload.split(":")[0].strip() != "t2_7":
        informational = (
            "are paper claims about the t2_7 sub-kernel; for --workload "
            f"{args.workload} they"
        )
    elif args.scale not in ("paper", "full"):
        informational = (
            f"describe the paper-scale workload; at --scale {args.scale} they"
        )
    if informational:
        print(f"\nnote: the shape checks {informational} are informational only.")
        return EXIT_OK
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_traces(args: argparse.Namespace) -> int:
    from repro.experiments.traces import comm_vs_gemm_share, run_fig10_11, run_fig12_13

    n_nodes = 8 if args.scale in ("tiny", "small") else 32
    v4, v2 = run_fig10_11(scale=args.scale, n_nodes=n_nodes)
    original = run_fig12_13(scale=args.scale, n_nodes=n_nodes)
    for experiment, figure in ((v4, "Figure 10"), (v2, "Figure 11")):
        print(f"=== {figure}: {experiment.name}")
        print(
            f"time={experiment.execution_time:.4f}s  "
            f"startup idle={100 * experiment.startup_idle:.1f}%"
        )
        print(experiment.gantt(width=args.width, max_rows=args.rows))
        print()
    print(f"=== Figure 12/13: {original.name}")
    print(
        f"time={original.execution_time:.4f}s  overlap={100 * original.overlap:.0f}%  "
        f"comm share={100 * original.comm_fraction:.1f}%  "
        f"comm/GEMM={comm_vs_gemm_share(original):.2f}x"
    )
    print(original.gantt(width=args.width, max_rows=args.rows))
    return EXIT_OK


def cmd_equivalence(args: argparse.Namespace) -> int:
    from repro.experiments.equivalence import run_equivalence

    result = run_equivalence(scale=args.scale, n_nodes=8, workload=args.workload)
    for name, energy in sorted(result.energies.items()):
        print(f"{name:10s} {energy:+.15e}")
    digits = result.agrees_to_digits()
    print(f"agreement: {digits:.1f} digits (paper claims 14)")
    return EXIT_OK if digits >= 13 else EXIT_CHECK_FAILED


def cmd_ablations(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.experiments.ablations import (
        compare_load_balancing,
        compare_scheduler_policies,
        compare_work_stealing,
        run_comm_ablation,
        sweep_priority_offsets,
        sweep_segment_height,
        sweep_write_organization,
    )

    if args.comm:
        comm_scale = "tiny" if args.scale in ("paper", "full") else args.scale
        result = run_comm_ablation(workloads=args.workloads, scale=comm_scale)
        table = result.table()
        print(table)
        if args.out:
            Path(args.out).write_text(table + "\n")
            print(f"table written to {args.out}")
        if not result.all_equal:
            print("FAIL: a knobs-on run diverged from the baseline output")
            return EXIT_CHECK_FAILED
        print("output equality: all knob combinations bitwise-equal to baseline")
        rc = EXIT_OK
        for workload in args.workloads:
            savings = result.message_savings(workload)
            verdict = "ok"
            if savings < args.min_message_savings:
                verdict = f"FAIL (< {args.min_message_savings:.0%})"
                rc = EXIT_CHECK_FAILED
            print(f"{workload}: {savings:.1%} fewer wire messages [{verdict}]")
        return rc

    steal_scale = "tiny" if args.scale in ("paper", "full") else args.scale
    tables = [
        (
            "READ priority offset (v4, 7 cores/node)",
            ["read offset", "time (s)"],
            [
                [f"+{k}", f"{v:.3f}"]
                for k, v in sorted(sweep_priority_offsets(scale=args.scale).items())
            ],
        ),
        (
            "GEMM chain segment height (15 cores/node)",
            ["chain height", "time (s)"],
            [[k, f"{v:.3f}"] for k, v in sweep_segment_height(scale=args.scale).items()],
        ),
        (
            "WRITE organization vs mutex cost (15 cores/node)",
            ["mutex op cost", "single WRITE (v5)", "parallel WRITEs"],
            [
                [k, f"{v['single-write (v5)']:.3f}", f"{v['parallel-write']:.3f}"]
                for k, v in sweep_write_organization(scale=args.scale).items()
            ],
        ),
        (
            "Load balancing (7 cores/node)",
            ["strategy", "time (s)"],
            [[k, f"{v:.3f}"] for k, v in compare_load_balancing(scale=args.scale).items()],
        ),
        (
            "Scheduler policy (v4, 7 cores/node)",
            ["policy", "time (s)"],
            [[k, f"{v:.3f}"] for k, v in compare_scheduler_policies(scale=args.scale).items()],
        ),
        (
            "Inter-node work stealing vs static placement "
            f"(skewed {steal_scale} workload, v5, compute-bound machine)",
            ["nodes", "static (s)", "stealing (s)", "speedup", "chains moved"],
            [
                [
                    k,
                    f"{row['static']:.6f}",
                    f"{row['stealing']:.6f}",
                    f"{row['speedup']:.2f}x",
                    f"{int(row['chains_migrated'])}",
                ]
                for k, row in compare_work_stealing(scale=steal_scale).items()
            ],
        ),
    ]
    print(
        "\n\n".join(
            format_table(headers, rows, title=title) for title, headers, rows in tables
        )
    )
    return EXIT_OK


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.experiments.chaos import run_chaos
    from repro.experiments.sweep import default_progress

    result = run_chaos(
        scale=args.scale,
        n_nodes=args.nodes,
        cores_per_node=args.cores,
        fault_seed=args.fault_seed,
        jobs=args.jobs,
        progress=default_progress,
        stealing=args.stealing,
        codes=args.codes,
        workload=args.workload,
    )
    print(f"fault plan: {result.plan_description}\n")
    rows = []
    for o in result.outcomes:
        nonzero = {k: v for k, v in o.counters.items() if v and k != "recovery_overhead_s"}
        rows.append(
            [
                o.name,
                "PASS" if o.bitwise_match else "FAIL",
                "PASS" if o.deterministic else "FAIL",
                "yes" if o.faults_recovered else "NO",
                f"{o.end_time_clean:.4f}",
                f"{o.end_time_faulted:.4f}",
                " ".join(f"{k}={v}" for k, v in sorted(nonzero.items())),
            ]
        )
    print(
        format_table(
            ["runner", "bitwise", "determ.", "faults", "clean (s)", "faulted (s)", "recovery counters"],
            rows,
            title="Chaos sweep: recovery under injected faults",
        )
    )
    print()
    print(result.sweep_stats.summary())
    print("ALL OK" if result.all_ok else "FAILURES DETECTED")
    return EXIT_OK if result.all_ok else EXIT_CHECK_FAILED


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
    """Run the perf sweep, write a BENCH baseline, gate on regressions."""
    from repro.analysis.report import format_table
    from repro.experiments.fig9 import Fig9Result
    from repro.experiments.perf import baseline_path, diff_baselines, run_perf
    from repro.experiments.sweep import default_progress
    from repro.util.errors import ConfigurationError

    new = run_perf(
        scale=args.scale,
        jobs=args.jobs,
        progress=default_progress,
        stealing=args.stealing,
        workload=args.workload,
    )
    committed_path = baseline_path(args.scale, workload=args.workload)
    # same file name as the committed baseline, in the working directory
    out = Path(committed_path.name)
    if args.stealing:
        out = out.with_stem(out.stem + "_stealing")
    written = new.write(args.out or out)
    print(f"wrote {written}")
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
        # stealing sweeps are a different experiment: their cells are
        # not comparable to the committed static baselines, and gating
        # on them would flag phantom regressions (or phantom wins)
        print(
            "\nstealing sweep: not comparable to the static baselines; "
            "skipping the regression gate"
        )
        return EXIT_OK
    baseline_file = Path(args.baseline or committed_path)
    if args.update_baseline:
        print(f"updated committed baseline {new.write(committed_path)}")
        return EXIT_OK
    if not baseline_file.exists():
        print(
            f"\nno committed baseline at {baseline_file}; skipping the "
            "regression gate (use --update-baseline to create one)"
        )
        return EXIT_OK
    try:
        old = Fig9Result.read(baseline_file)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    diff = diff_baselines(old, new, threshold=args.threshold)
    print(f"\nbaseline: {baseline_file} (threshold {100 * args.threshold:.0f}%)")
    for cell in diff.missing:
        print(f"WARNING {cell.describe()}")
    if diff.regressions:
        for regression in diff.regressions:
            print(f"REGRESSION {regression.describe()}")
        return EXIT_CHECK_FAILED
    if diff.missing:
        print(
            "no regressions in the cells both sweeps cover — but "
            f"{len(diff.missing)} baseline cell(s) went missing (see above)"
        )
    else:
        print("no regressions")
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

    from repro.serve.daemon import ServeDaemon

    daemon = ServeDaemon(
        journal_path=args.journal,
        host=args.host,
        port=args.port,
        workers=args.workers,
        pool_jobs=args.jobs,
        cell_timeout=args.cell_timeout,
        retries=args.retries,
        compact_bytes=args.compact_bytes,
    )

    def _on_sigterm(signum, frame):
        raise SystemExit(EXIT_OK)

    signal.signal(signal.SIGTERM, _on_sigterm)
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
    rc = EXIT_OK
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        rc = EXIT_INTERRUPTED
    except SystemExit as exc:
        rc = int(exc.code or 0)
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
    p.set_defaults(func=cmd_fig9)

    p = subparsers.add_parser("traces", help="Figures 10-13 ASCII traces")
    _options(p, "scale", scale=dict(default="small"))
    p.add_argument("--width", type=int, default=100)
    p.add_argument("--rows", type=int, default=7)
    p.set_defaults(func=cmd_traces)

    p = subparsers.add_parser("equivalence", help="14-digit agreement check")
    _options(p, "scale", "workload", scale=dict(default="small"))
    p.set_defaults(func=cmd_equivalence)

    p = subparsers.add_parser("ablations", help="design-decision sweeps")
    _options(
        p,
        "scale",
        "out",
        out=dict(help="also write the --comm table to this file (CI artifact)"),
    )
    p.add_argument(
        "--comm",
        action="store_true",
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
    p.add_argument(
        "--min-message-savings",
        type=float,
        default=0.0,
        metavar="FRAC",
        help="fail unless every --comm workload cuts wire messages by "
        "at least this fraction with both knobs on (e.g. 0.20)",
    )
    p.set_defaults(func=cmd_ablations)

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
        stealing=dict(
            help=(
                "run the PaRSEC variants with inter-node work stealing under "
                "the fault plan (the legacy runtime ignores it)"
            )
        ),
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
    p.set_defaults(func=cmd_chaos)

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
                "sweep with inter-node work stealing; writes a _stealing "
                "BENCH file and skips the (static) regression gate"
            )
        ),
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="regression threshold as a fraction (default: 0.20 = 20%%)",
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
                "(default: 2; 1 = no pools, cells run in the daemon's threads)"
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
    p.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        help="wall-clock deadline per cell attempt in seconds",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retry budget per cell (timeouts and killed workers)",
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
