"""``serve_mixed``: the job service under a closed loop of two clients.

``python -m repro serve --port 0 --workers 2 --jobs 2`` runs as a
subprocess on a journal under the benchmark's ``out`` directory. Two
client threads (``serve.client.ServiceClient``: ``submit`` then ``watch``)
drain one seeded queue of distinct ``point``, ``fig9`` and ``chaos`` jobs
in which every spec also appears a second time, some way behind its
first submission; the second must come back ``cached: true`` with a
byte-identical payload. Cold jobs (journal writes, pool spawns) therefore
run beside cache hits (reads).

Shrink rule: scale the three job counts together. Applied to the
``fig9`` and ``chaos`` counts (halved, to fit the driver's time cap); the
120 ``point`` jobs stay, because a p90 needs ten samples beyond it.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.serve.client import ServiceClient, ServiceError
from repro.serve.journal import read_events, rebuild

from . import probes
from .spans import Tracer
from .workloads import FAULT_SEED, Op, Workload, ir_gemms

CODES = ("original", "v1", "v2", "v3", "v4", "v5")
_TICK = os.sysconf("SC_CLK_TCK")
_PAGE_KB = os.sysconf("SC_PAGE_SIZE") / 1024.0


@dataclass
class Job:
    op_id: str
    kind: str
    params: dict
    #: simulations a cold execution runs (0 for a resubmit)
    sims: int
    #: op id of the first submission when this is the resubmit
    resubmit_of: Optional[str] = None


def _proc_table() -> dict[int, tuple[int, float, float]]:
    """pid -> (ppid, cpu seconds incl. reaped children, rss kB)."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # exited between listdir and open
        fields = stat[stat.rindex(")") + 2 :].split()
        cpu = sum(int(fields[i]) for i in (11, 12, 13, 14)) / _TICK
        table[int(entry)] = (int(fields[1]), cpu, int(fields[21]) * _PAGE_KB)
    return table


def _tree(table: dict, root: int) -> list[int]:
    """``root`` and its live descendants."""
    members, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        if pid in table:
            members.append(pid)
            frontier.extend(p for p, row in table.items() if row[0] == pid)
    return members


class ServeMixed(Workload):
    name = "serve_mixed"
    CLIENTS = 2
    SIZES = {
        "full": dict(codes=CODES, point_seeds=10, fig9=12, chaos=6),
        "smoke": dict(codes=("original", "v5"), point_seeds=1, fig9=1, chaos=1),
    }
    #: a resubmit trails its first submission by this many queue slots
    RESUBMIT_LAG = (2, 40)

    def __init__(self, size: str, seed: int, clock, out_dir: Path) -> None:
        super().__init__(size, seed, clock)
        self.out_dir = out_dir
        self.journal = out_dir / f"serve_mixed_{os.getpid()}.journal.jsonl"
        self.proc: Optional[subprocess.Popen] = None
        self.client: Optional[ServiceClient] = None
        self._peak_rss_kb = 0.0
        self._sampler_stop = threading.Event()
        self._sampler: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # daemon lifecycle
    # ------------------------------------------------------------------
    def _boot(self) -> None:
        self.journal.unlink(missing_ok=True)
        log = open(self.out_dir / "serve_mixed.daemon.log", "w")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0"]
                + ["--workers", "2", "--jobs", "2", "--compact-bytes", "0"]
                + ["--journal", str(self.journal)],
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
                start_new_session=True,
            )
        finally:
            log.close()
        banner = self.proc.stdout.readline()  # "serving on 127.0.0.1:<port>"
        if "serving on" not in banner:
            raise RuntimeError(f"daemon did not start: {banner!r}")
        self.port = int(banner.rsplit(":", 1)[1])
        self.client = ServiceClient(port=self.port, timeout_s=30.0)
        deadline = time.monotonic() + 10.0
        while not self.client.health():
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never answered /healthz")
            time.sleep(0.01)

    def _stop(self) -> float:
        """SIGTERM -> exit, in calibrated seconds; then sweep the daemon's
        session so no pool worker outlives the run."""
        proc, self.proc = self.proc, None
        if proc is None:
            return 0.0
        start = time.perf_counter()
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            pass
        elapsed = self.clock.between(start, time.perf_counter())
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()
        return elapsed

    def setup(self) -> None:
        self._boot()
        # warm-up job: cores=1 keeps its digest apart from every timed job
        warm = self.client.submit("point", {"code": "v5", "cores": 1})
        self.client.watch(warm["job_id"])
        self._cache_before = self.client.metrics()["cache"]
        self.n_gemms = {wl: ir_gemms(f"{wl}:tiny") for wl in ("t2_7", "rbgs")}
        self._sampler_stop.clear()
        self._sampler = threading.Thread(target=self._sample_rss, daemon=True)
        self._sampler.start()

    def teardown(self) -> None:
        self._sampler_stop.set()
        if self._sampler is not None:
            self._sampler.join()
            self._sampler = None
        self._stop()
        self.journal.unlink(missing_ok=True)

    def _sample_rss(self) -> None:
        """Peak summed RSS of the daemon and its pool children. Pool
        workers live for about half a second and grow all the while, so
        sample at 25 Hz (about 1 ms of /proc reads each)."""
        pid = self.proc.pid
        while not self._sampler_stop.wait(0.04):
            table = _proc_table()
            rss = sum(table[p][2] for p in _tree(table, pid))
            self._peak_rss_kb = max(self._peak_rss_kb, rss)

    def cpu_now(self) -> float:
        own = os.times()
        table = _proc_table()
        tree = sum(table[p][1] for p in _tree(table, self.proc.pid))
        return own.user + own.system + tree

    def peak_rss_mb(self) -> float:
        return self._peak_rss_kb / 1024.0

    # ------------------------------------------------------------------
    # the job mix
    # ------------------------------------------------------------------
    def _jobs(self) -> list[Job]:
        p = self.p
        codes = list(p["codes"])
        base = self.seed * 1000
        cold = []
        for k in range(p["point_seeds"]):
            for wl in ("t2_7", "rbgs"):
                for code in codes:
                    params = {"workload": wl, "code": code, "seed": base + k}
                    cold.append(Job(f"point.{wl}.{code}.{k}", "point", params, 1))
        for k in range(p["fig9"]):
            wl = ("t2_7", "rbgs")[k % 2]
            params = {"workload": wl, "codes": codes, "seed": base + k}
            cold.append(Job(f"fig9.{wl}.{k}", "fig9", params, 2 * len(codes)))
        for k in range(p["chaos"]):
            wl = ("t2_7", "rbgs")[k % 2]
            params = {"workload": wl, "codes": codes, "seed": base + k}
            params["fault_seed"] = 1000 * FAULT_SEED + k
            cold.append(Job(f"chaos.{wl}.{k}", "chaos", params, 3 * len(codes)))
        rng = random.Random(self.seed)
        rng.shuffle(cold)
        keyed = []
        for slot, job in enumerate(cold):
            keyed.append((float(slot), job))
            again = Job(f"re.{job.op_id}", job.kind, job.params, 0, job.op_id)
            keyed.append((slot + rng.uniform(*self.RESUBMIT_LAG), again))
        keyed.sort(key=lambda pair: pair[0])
        return [job for _, job in keyed]

    def _job_op(self, job: Job, t0: float, wall: float, submitted, body) -> Op:
        """Checks and simulated values of one finished job."""
        result = body.get("result", {})
        checks = {"done": body.get("status") == "done" and not body.get("errors")}
        virt, virt_s = {}, 0.0
        if job.resubmit_of is not None:
            first = self._payloads.get(job.resubmit_of)
            checks["cached"] = bool(submitted.get("cached"))
            checks["payload_identical"] = first == json.dumps(result, sort_keys=True)
        else:
            self._payloads[job.op_id] = json.dumps(result, sort_keys=True)
            if job.kind == "chaos":
                outcomes = {name: cell[0] for name, cell in result.items()}
                virt = {n: o["end_time_clean"] for n, o in outcomes.items()}
                faulted = {n: o["end_time_faulted"] for n, o in outcomes.items()}
                for flag in ("bitwise_match", "deterministic", "faults_recovered"):
                    checks[flag] = all(o[flag] for o in outcomes.values())
                virt_s = sum(virt.values())
                virt["faulted"] = faulted
            else:
                virt = dict(result)
                virt_s = sum(virt.values())
        gemms = job.sims * self.n_gemms[job.params["workload"]]
        return Op(job.op_id, wall, gemms, virt, checks, virt_s, t0)

    def _drive(self, traced: bool) -> list[tuple]:
        """Closed loop: each client submits, waits for the result, then
        takes the next job. Returns ``(client, job, op, stamps)`` rows."""
        queue = deque(self._jobs())
        finished: set[str] = set()
        cond = threading.Condition()
        rows: list[tuple] = []
        self._payloads: dict[str, str] = {}

        def take() -> Optional[Job]:
            with cond:
                while queue:
                    for _ in range(len(queue)):
                        job = queue.popleft()
                        if job.resubmit_of is None or job.resubmit_of in finished:
                            return job
                        queue.append(job)  # its first submission is in flight
                    cond.wait()
                return None

        def one(client: ServiceClient, job: Job) -> tuple[Op, dict]:
            stamps = {"t0": time.perf_counter()}
            try:
                submitted = client.submit(job.kind, job.params)
                stamps["submitted"] = time.perf_counter()
                if traced:
                    for event in client.events(submitted["job_id"]):
                        stamps.setdefault(event["type"], time.perf_counter())
                    stamps.setdefault("finished", time.perf_counter())
                    body = client.result(submitted["job_id"])
                else:
                    body = client.watch(submitted["job_id"], timeout_s=120.0)
            except ServiceError as exc:  # refused or timed out: a failed op
                stamps["end"] = time.perf_counter()
                wall = stamps["end"] - stamps["t0"]
                failed = Op(job.op_id, wall, 0, {"error": str(exc)}, t0=stamps["t0"])
                failed.checks = {"done": False}
                return failed, stamps
            stamps["end"] = time.perf_counter()
            wall = stamps["end"] - stamps["t0"]
            return self._job_op(job, stamps["t0"], wall, submitted, body), stamps

        def client_loop(index: int) -> None:
            client = ServiceClient(port=self.port, timeout_s=30.0)
            while True:
                job = take()
                if job is None:
                    return
                op, stamps = one(client, job)
                with cond:
                    rows.append((index, job, op, stamps))
                    finished.add(job.op_id)
                    cond.notify_all()

        threads = [
            threading.Thread(target=client_loop, args=(i,)) for i in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return rows

    def run(self) -> list[Op]:
        self._rows = self._drive(traced=False)
        return [op for _, _, op, _ in self._rows]

    def run_traced(self, tracer: Tracer) -> list[Op]:
        start = time.perf_counter()
        self._rows = rows = self._drive(traced=True)
        end = time.perf_counter()
        root = tracer.spans[0]["id"]
        for index in range(self.CLIENTS):
            lane = tracer.add("serve.client", start, end, root, None)
            for client, job, op, t in rows:
                if client != index:
                    continue
                parent = tracer.add("harness.op", t["t0"], t["end"], lane, op.id)
                if "submitted" not in t:
                    continue  # refused at submit
                tracer.add("serve.submit", t["t0"], t["submitted"], parent, op.id)
                started = t.get("started", t["submitted"])
                tracer.add("serve.queue_wait", t["submitted"], started, parent, op.id)
                tracer.add("serve.run", started, t["finished"], parent, op.id)
                tracer.add("serve.fetch", t["finished"], t["end"], parent, op.id)
        return [op for _, _, op, _ in rows]

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def _latencies_ms(self, prefix: str) -> list[float]:
        return [
            1e3 * op.wall_s for _, _, op, _ in self._rows if op.id.startswith(prefix)
        ]

    def scoped_metrics(self, ops: list[Op], wall_s: float) -> dict:
        return {
            "job_cold_p50_ms": statistics.median(self._latencies_ms("point.")),
            "job_hit_p50_ms": statistics.median(self._latencies_ms("re.")),
            "jobs_per_s": len(ops) / wall_s,
        }

    def layer_metrics(self, spans: list[dict], ops: list[Op]) -> dict:
        def p(values: list[float], q: int) -> float:
            """q-th percentile (q in tenths), by the inclusive method."""
            if len(values) < 2:
                return values[0]
            return statistics.quantiles(values, n=10, method="inclusive")[q - 1]

        def span_ms(name: str, prefix: str = "") -> list[float]:
            return [
                1e3 * (s["end"] - s["start"])
                for s in spans
                if s["name"] == name and s["op"].startswith(prefix)
            ]

        metrics = self.client.metrics()
        cache = metrics["cache"]
        hits = cache["hits"] - self._cache_before["hits"]
        misses = cache["misses"] - self._cache_before["misses"]
        replay_copy = self.journal.with_suffix(".replay")
        shutil.copy(self.journal, replay_copy)
        out = {
            "serve.submit_ms_p50": p(span_ms("serve.submit"), 5),
            "serve.hit_ms_p90": p(self._latencies_ms("re."), 9),
            "serve.cold_point_ms_p90": p(self._latencies_ms("point."), 9),
            "serve.cold_fig9_ms_p50": p(self._latencies_ms("fig9."), 5),
            "serve.queue_wait_ms_p50": statistics.median(
                v
                for name in ("point.", "fig9.", "chaos.")
                for v in span_ms("serve.queue_wait", name)
            ),
            "serve.cache.hit_ratio": hits / (hits + misses),
            "serve.journal.bytes_per_job": metrics["journal"]["size_bytes"] / len(ops),
            "serve.stop_ms": 1e3 * self._stop(),
        }
        try:
            start = time.perf_counter()
            rebuild(read_events(replay_copy))
            out["serve.replay_ms"] = 1e3 * self.clock.between(
                start, time.perf_counter()
            )
        finally:
            replay_copy.unlink(missing_ok=True)
        out["serve.journal.append_us"] = probes.journal_append_us(self.out_dir)
        out["core.inspect_cache_pickle_ms"] = probes.inspect_cache_pickle_ms()
        out.update(probes.sweep_probes())
        return out
