"""Service smoke: kill a concurrent daemon mid-flight, prove nothing is lost.

Drives the real ``python -m repro serve`` subprocess through the full
resilience story, now with concurrent workers and journal compaction:

1. start the daemon with a fresh journal and ``--workers 2 --jobs 2``:
   each worker forks its one pool process at boot,
2. submit three distinct fig9 jobs at once and SIGKILL the daemon while
   they are in flight — no graceful shutdown, no flush beyond the
   per-event fsync the journal already did; its pool processes must
   follow it on their own (they hold its listening socket),
3. restart the daemon over the same journal: every job recovers and
   finishes, and the journal holds exactly one ``job_finished`` per
   job — no job lost, no result duplicated; two jobs running at once
   report two different pool pids, neither the daemon's,
4. resubmit each spec and assert it is answered by the replayed job
   that computed it (its ``job_id``, ``cached: true``, byte-identical
   payload) without re-running a single simulation, without writing a
   byte to the journal and — by the daemon's own
   ``serve.http.requests`` counters — in exactly one request each,
   while a fourth, cold job costs exactly two (submit, events); then
   submit a ``point`` job whose one cell sits inside a finished grid,
   and another at a seed no job used (a SYNTH cell carries no seed):
   the cell index answers each (``cached``, no pid: it ran in no
   process) with the grid's value; then SIGTERM — the clean shutdown
   compacts the journal into one snapshot line,
5. start a third daemon over the *compacted* journal and assert it
   serves identical status and result payloads for every prior job id,
   answers another grid's ``point`` job from the rebuilt cell index,
   answers a malformed submission with 400 and stays healthy.

Run from the repository root::

    PYTHONPATH=src python examples/service_smoke.py

Exit code 0 means the journal + replay + hit + compaction chain held
end to end. CI runs this on every push (the ``service-smoke`` job).
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.serve.client import ServiceClient
from repro.serve.journal import read_events

JOB_KIND = "fig9"
#: three distinct jobs, several cells each so the SIGKILL lands while
#: work is genuinely in flight. They differ in ``n_nodes``, which their
#: cells read, not in ``seed``, which a SYNTH cell does not carry: jobs
#: differing only in seed would share every cell, and one would answer
#: the others from the cell index instead of running in a pool process.
JOB_PARAMS = [
    {"codes": ["v4", "v5"], "core_counts": [1, 2], "scale": "tiny",
     "n_nodes": n_nodes}
    for n_nodes in (2, 3, 4)
]


def start_daemon(journal: Path) -> tuple[subprocess.Popen, ServiceClient]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--journal", str(journal), "--jobs", "2", "--workers", "2",
         "--compact-bytes", "65536"],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,  # so its descendants can be found
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if line.startswith("serving on "):
            port = int(line.rsplit(":", 1)[1])
            return proc, ServiceClient(port=port, timeout_s=10.0)
        if proc.poll() is not None:
            raise SystemExit("daemon died during startup")
    proc.kill()
    raise SystemExit("daemon never announced readiness")


def descendants(daemon_pid: int) -> list[int]:
    """Live (not zombie) processes of the session ``daemon_pid`` leads."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # exited between listdir and open
        state, _ppid, _pgrp, session = stat[stat.rindex(")") + 2:].split()[:4]
        if int(session) == daemon_pid and state != "Z":
            pids.append(int(entry))
    return pids


def assert_no_survivor(daemon_pid: int, within_s: float = 3.0) -> None:
    deadline = time.monotonic() + within_s
    while descendants(daemon_pid):
        assert time.monotonic() < deadline, (
            f"`repro serve` descendants outlived it: {descendants(daemon_pid)}"
        )
        time.sleep(0.02)


def requests_by_route(client: ServiceClient) -> dict[str, int]:
    """``serve.http.requests`` off ``/metrics``, its own route left out."""
    prefix = "serve.http.requests{route="
    counters = client.metrics()["metrics"]["counters"]
    return {
        key[len(prefix):-1]: int(value)
        for key, value in counters.items()
        if key.startswith(prefix) and "route=metrics" not in key
    }


def requests_spent(client: ServiceClient, before: dict[str, int]) -> dict[str, int]:
    now = requests_by_route(client)
    return {r: n - before.get(r, 0) for r, n in now.items() if n != before.get(r, 0)}


def post_raw(client: ServiceClient, body: bytes) -> int:
    """The status code of a ``POST /jobs`` that carries ``body`` as is."""
    req = urllib.request.Request(
        client.base + "/jobs", data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=10.0) as resp:
            return resp.status
    except urllib.error.HTTPError as exc:
        return exc.code


def cell_pids(client: ServiceClient, job_id: str) -> set[int]:
    """Pids of the job's computed cells (a cached cell ran nowhere)."""
    return {e["pid"] for e in client.events(job_id)
            if e["type"] == "cell" and not e["cached"]}


def assert_answered_by_index(
    client: ServiceClient, params: dict, grid: dict
) -> None:
    """A ``point`` job inside the finished grid whose result is ``grid``:
    its one cell comes from the cell index, in no process, with the
    grid's value."""
    submitted = client.submit("point", params)
    assert not submitted["cached"], "a new job, not a job-level hit"
    body = client.watch(submitted["job_id"], timeout_s=60.0)
    label = f"{params['code']}/{params['cores']}"
    assert body["status"] == "done", body
    assert body["result"] == {label: grid[label]}, (body, grid)
    [cell] = [e for e in client.events(submitted["job_id"])
              if e["type"] == "cell"]
    assert cell["cached"] and cell["pid"] is None, cell


def main() -> int:
    journal = Path(tempfile.mkdtemp(prefix="repro-serve-")) / "journal.jsonl"

    print("=== first daemon: three concurrent jobs, then SIGKILL mid-flight")
    proc, client = start_daemon(journal)
    submitted = [client.submit(JOB_KIND, params) for params in JOB_PARAMS]
    job_ids = [s["job_id"] for s in submitted]
    print(f"submitted {job_ids}")
    # wait until at least one job has observably started, then kill —
    # some jobs may already be done, some mid-run, some still queued;
    # recovery has to absorb every mix
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        events = [e["event"] for e in read_events(journal)]
        if "job_started" in events:
            break
        time.sleep(0.02)
    else:
        raise SystemExit("no job ever started")
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=10.0)
    assert_no_survivor(proc.pid)
    events = [e["event"] for e in read_events(journal)]
    assert "daemon_stopped" not in events, "that was not a crash"
    print(f"journal after crash: {events}; no pool process survived it")

    print("=== second daemon: replay, finish everything exactly once")
    proc2, client2 = start_daemon(journal)
    results = {}
    try:
        for job_id in job_ids:
            body = client2.watch(job_id, timeout_s=300.0)
            assert body["status"] == "done", body
            results[job_id] = body["result"]
        print(f"all {len(job_ids)} jobs done after restart")
        # the recovered jobs ran two at a time, one per worker, each in
        # its worker's own pool process
        pids = set().union(*(cell_pids(client2, job_id) for job_id in job_ids))
        assert len(pids) == 2 and proc2.pid not in pids, (proc2.pid, pids)
        assert pids <= set(descendants(proc2.pid))
        print(f"cells ran in pool processes {sorted(pids)}, "
              f"none in the daemon ({proc2.pid})")
        finished = [
            e for e in read_events(journal) if e["event"] == "job_finished"
        ]
        # exactly one finish per submitted job: recovered, never re-run
        # after completing, never lost
        assert sorted(e["job_id"] for e in finished) == sorted(job_ids), (
            "duplicate or missing job_finished records"
        )
        before = requests_by_route(client2)
        size = journal.stat().st_size
        for params, job_id in zip(JOB_PARAMS, job_ids):
            again = client2.submit(JOB_KIND, params)
            assert again["cached"], "the replayed job should have answered"
            assert again["job_id"] == job_id, (again, job_id)
            hit = client2.result(again["job_id"])
            assert hit["result"] == results[job_id], "a hit changed the bytes"
        # a hit is a read: the journal did not grow by a byte
        assert journal.stat().st_size == size, (journal.stat().st_size, size)
        # the answer rode the 202 that announced it: one request per hit
        spent = requests_spent(client2, before)
        assert spent == {"submit": len(job_ids)}, spent
        before = requests_by_route(client2)
        cold = client2.submit(JOB_KIND, {**JOB_PARAMS[0], "n_nodes": 5})
        assert not cold["cached"]
        assert client2.watch(cold["job_id"], timeout_s=300.0)["status"] == "done"
        # ... and the stream's last line: two requests per cold job
        spent = requests_spent(client2, before)
        assert spent == {"submit": 1, "events": 1}, spent
        print("resubmissions: the job that computed each, 0 journal bytes, "
              "1 request; cold job: 2 requests")
        point = {**JOB_PARAMS[0], "code": "v5", "cores": 2}
        del point["codes"], point["core_counts"]
        assert_answered_by_index(client2, point, results[job_ids[0]])
        print("a point job inside a finished grid: its cell cached, no process")
        assert_answered_by_index(client2, {**point, "seed": 4242},
                                 results[job_ids[0]])
        print("... and one at a seed no job used: cached, no process")
        view = client2.metrics()
        assert view["cache"]["hits"] >= 3
        # exactly the two point jobs: no crash-test or cold job shares a
        # cell with another (each has its own n_nodes)
        assert view["cache"]["cell_hits"] == 2, view["cache"]
        assert view["workers"] == 2
        print(f"metrics: cache={view['cache']} journal={view['journal']}")
    finally:
        proc2.send_signal(signal.SIGTERM)
        proc2.wait(timeout=15.0)
    assert_no_survivor(proc2.pid)
    events = read_events(journal)
    assert events[-1]["event"] == "daemon_stopped"
    # the clean shutdown folded the whole history into one snapshot line
    assert "snapshot" in [e["event"] for e in events], "no compaction ran"
    print(f"journal compacted to {len(events)} events "
          f"({journal.stat().st_size} bytes)")

    print("=== third daemon: serve identical payloads from the snapshot")
    proc3, client3 = start_daemon(journal)
    try:
        for job_id, result in results.items():
            status = client3.status(job_id)
            assert status["status"] == "done", status
            body = client3.result(job_id)
            assert body["result"] == result, (
                f"compacted replay changed the bytes of {job_id}"
            )
        # the replay rebuilt the cell index from the snapshot
        point = {**JOB_PARAMS[1], "code": "v4", "cores": 1}
        del point["codes"], point["core_counts"]
        assert_answered_by_index(client3, point, results[job_ids[1]])
        print("after the compacted restart: another grid's point job, cached")
        # a malformed submission is the client's 400, not a dropped
        # connection, and the daemon keeps serving
        status = post_raw(client3, b'{"kind": "fig9", "params": [1, 2]}')
        assert status == 400, status
        assert client3.health(), "a malformed submission hurt the daemon"
        print("malformed submission: 400, daemon healthy")
    finally:
        proc3.send_signal(signal.SIGTERM)
        proc3.wait(timeout=15.0)

    print(json.dumps({"smoke": "ok",
                      "journal_events": len(read_events(journal))}))
    print("OK: three concurrent jobs survived SIGKILL; the compacted "
          "journal serves identical results")
    return 0


if __name__ == "__main__":
    os.chdir(Path(__file__).resolve().parents[1])
    sys.exit(main())
