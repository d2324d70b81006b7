"""One workload, in its own fresh interpreter.

``python -m benchmarks.host child ...`` is what the ``run`` command
spawns per workload and per mode (untraced / traced), so peak RSS and
allocator state belong to that workload alone. The result goes to a JSON
file; nothing is printed.

Every host time in the result is read off the calibrated clock (see
:mod:`calibrate`); ``raw`` holds the same quantities in plain seconds.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from .calibrate import HostClock

#: set-ups per run; ``setup_s`` is the import time plus their median
SETUP_REPEATS = 3


def _versions() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def make_workload(name: str, size: str, seed: int, out_dir: Path, clock: HostClock):
    from .workloads import IN_PROCESS

    if name in IN_PROCESS:
        return IN_PROCESS[name](size, seed, clock)
    from .serve_load import ServeMixed

    if name == ServeMixed.name:
        return ServeMixed(size, seed, clock, out_dir)
    raise SystemExit(f"unknown workload {name!r}")


def run_child(
    name: str,
    size: str,
    seed: int,
    traced: bool,
    spawned_at: float,
    result_path: Path,
    out_dir: Path,
) -> None:
    if name != "serve_mixed":
        # single-threaded workload: share one CPU with the calibrator, whose
        # readings then follow this CPU's speed (6% spread against 8% from
        # the other CPU in a 320 s trial); it costs the workload the
        # calibrator's duty cycle, about 6%, on every run alike
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    samples = out_dir / f"host_speed_{os.getpid()}.txt"
    samples.write_text("")
    calibrator = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("calibrate.py")), str(samples)]
    )
    try:
        result = _measure(
            name, size, seed, traced, spawned_at, out_dir, HostClock(samples)
        )
    finally:
        calibrator.terminate()
        calibrator.wait()
        samples.unlink(missing_ok=True)
    result_path.write_text(json.dumps(result))


def _measure(
    name: str,
    size: str,
    seed: int,
    traced: bool,
    spawned_at: float,
    out_dir: Path,
    clock: HostClock,
) -> dict:
    from .spans import Tracer, calibrated, layer_self_times
    from .workloads import span_layer_metrics

    workload = make_workload(name, size, seed, out_dir, clock)
    imported_at = time.perf_counter()
    setup_stamps = []
    try:
        for _ in range(SETUP_REPEATS):
            workload.teardown()
            start = time.perf_counter()
            workload.setup()
            setup_stamps.append((start, time.perf_counter()))

        tracer = Tracer()
        cpu_start = workload.cpu_now()
        body_start = time.perf_counter()
        if traced:
            with tracer.span("harness.body"):
                ops = workload.run_traced(tracer)
        else:
            ops = workload.run()
        body_end = time.perf_counter()
        cpu_raw = workload.cpu_now() - cpu_start
        workload.finalize(ops)
        peak_rss_mb = workload.peak_rss_mb()

        wall_raw = body_end - body_start
        wall_s = clock.between(body_start, body_end)
        #: mean slowdown of the host over the body (1.0 = reference speed)
        slowdown = wall_raw / wall_s
        for op in ops:
            if op.wall_s is None:
                continue
            if op.t0 is None:
                op.wall_s /= slowdown
            else:
                op.wall_s = clock.between(op.t0, op.t0 + op.wall_s)
        setups = [clock.between(a, b) for a, b in setup_stamps]
        import_s = clock.between(spawned_at, imported_at)
        result = {
            "workload": name,
            "size": size,
            "seed": seed,
            "traced": traced,
            "import_s": import_s,
            "setup_samples_s": setups,
            "setup_s": import_s + statistics.median(setups),
            "wall_s": wall_s,
            "cpu_s": cpu_raw / slowdown,
            "peak_rss_mb": peak_rss_mb,
            "host_slowdown": slowdown,
            "raw": {
                "wall_s": wall_raw,
                "cpu_s": cpu_raw,
                "setup_samples_s": [b - a for a, b in setup_stamps],
                "import_s": imported_at - spawned_at,
            },
            "sim_gemms": sum(op.n_gemms for op in ops),
            "ops": [asdict(op) for op in ops],
            "scoped": workload.scoped_metrics(ops, wall_s),
            "versions": _versions(),
        }
        if traced:
            spans = calibrated(tracer.spans, clock)
            layer = span_layer_metrics(spans)
            layer.update(workload.layer_metrics(spans, ops))
            origin = spans[0]["start"]
            for span in spans:
                span["start"] -= origin
                span["end"] -= origin
            trace_path = out_dir / f"trace_{name}.json"
            trace_path.write_text(
                json.dumps(
                    {
                        "workload": name,
                        "seed": seed,
                        "size": size,
                        "clock": "calibrated seconds since the body began",
                        "spans": spans,
                    }
                )
            )
            result.update(
                layer=layer,
                self_time_s=layer_self_times(spans),
                n_spans=len(spans),
                trace_file=str(trace_path),
            )
    finally:
        workload.teardown()
    return result
