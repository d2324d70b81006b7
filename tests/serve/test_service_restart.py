"""The acceptance scenario: SIGKILL the real daemon, restart, recover.

Runs ``python -m repro serve`` as a subprocess against a real (tiny)
workload: a completed job must survive the kill as a cached result, a
job caught in flight must be re-executed — no job lost, no result
duplicated. And the daemon's pool processes, which live as long as it
does and hold its listening socket, must die with it however it dies.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve.client import ServiceClient
from repro.serve.journal import read_events, rebuild

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _spawn(
    journal: Path, port: int = 0, jobs: int = 1, workers: int = 1
) -> tuple[subprocess.Popen, int]:
    """Start a daemon as the leader of a session of its own, so that
    everything it forks can be found (and swept) by session id."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--journal", str(journal), "--jobs", str(jobs),
         "--workers", str(workers)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
        start_new_session=True,
    )
    # the daemon announces readiness with one line: "serving on HOST:PORT"
    deadline = time.monotonic() + 30.0
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if line.startswith("serving on "):
            return proc, int(line.rsplit(":", 1)[1])
        if proc.poll() is not None:
            break
        time.sleep(0.05)
    proc.kill()
    raise AssertionError(f"daemon never became ready (last line: {line!r})")


_POINT = {"code": "v5", "cores": 1, "scale": "tiny", "n_nodes": 2}


@pytest.mark.slow
class TestKillAndRestart:
    def test_sigkill_then_restart_recovers_everything(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        proc, port = _spawn(journal)
        killed = False
        try:
            client = ServiceClient(port=port, timeout_s=10.0)
            # job A runs to completion before the kill
            a = client.submit("point", _POINT)
            done = client.watch(a["job_id"], timeout_s=120.0)
            assert done["status"] == "done" and done["result"]
            # job B is submitted and immediately orphaned by SIGKILL; it
            # differs in a field its cell reads, since a SYNTH cell carries
            # no seed and A's cell would answer B at another seed at once
            b = client.submit("point", {**_POINT, "n_nodes": 3})
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10.0)
            killed = True

            events = [e["event"] for e in read_events(journal)]
            assert "daemon_stopped" not in events  # it really crashed
            finished_before = [
                e["job_id"] for e in read_events(journal)
                if e["event"] == "job_finished"
            ]
            assert finished_before == [a["job_id"]]

            # restart over the same journal
            proc2, port2 = _spawn(journal)
            try:
                client2 = ServiceClient(port=port2, timeout_s=10.0)
                # job A's digest is served from the replayed cache —
                # instantly done, no recomputation
                again = client2.submit("point", _POINT)
                assert again["cached"] and again["status"] == "done"
                assert (
                    client2.result(again["job_id"])["result"]
                    == done["result"]
                )
                # job B was recovered and re-executed under its own id
                recovered = client2.watch(b["job_id"], timeout_s=120.0)
                assert recovered["status"] == "done"
                assert recovered["result"]

                # no result duplicated: one job_finished per job id
                finished = [
                    e["job_id"] for e in read_events(journal)
                    if e["event"] == "job_finished" and not e.get("cached")
                ]
                assert sorted(finished) == sorted([a["job_id"], b["job_id"]])
            finally:
                proc2.send_signal(signal.SIGTERM)
                proc2.wait(timeout=15.0)
            # the second daemon stopped cleanly and said so
            assert read_events(journal)[-1]["event"] == "daemon_stopped"
        finally:
            if not killed and proc.poll() is None:
                proc.kill()


def _session_pids(sid: int) -> list[int]:
    """Live (not zombie) processes of session ``sid``."""
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
        if int(session) == sid and state != "Z":
            pids.append(int(entry))
    return pids


def _gone_within(sid: int, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while _session_pids(sid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


#: 12 cells: long enough for a signal to land while it is running
_GRID = {"scale": "tiny", "n_nodes": 2, "core_counts": [1, 2]}


@pytest.mark.slow
class TestPoolDiesWithTheDaemon:
    @pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM])
    def test_no_process_survives_and_a_restart_takes_the_same_port(
        self, tmp_path, sig
    ):
        journal = tmp_path / "journal.jsonl"
        proc, port = _spawn(journal, jobs=2, workers=2)
        proc2 = None
        try:
            # the daemon and its two pool processes, forked at boot
            assert len(_session_pids(proc.pid)) == 3
            client = ServiceClient(port=port, timeout_s=10.0)
            job = client.submit("fig9", _GRID)
            for event in client.events(job["job_id"]):
                if event["type"] == "cell":
                    assert event["pid"] in _session_pids(proc.pid)
                    assert event["pid"] != proc.pid
                    break  # mid-job: 11 cells to go
            start = time.monotonic()
            proc.send_signal(sig)
            proc.wait(timeout=10.0)
            if sig == signal.SIGTERM:
                # a clean stop kills its pool, it does not wait for the job
                assert time.monotonic() - start < 2.0
                assert proc.returncode == 0
            assert _gone_within(proc.pid, 3.0), _session_pids(proc.pid)
            events = read_events(journal)
            clean = events[-1]["event"] == "daemon_stopped"
            assert clean == (sig == signal.SIGTERM)
            assert rebuild(events).pending == [job["job_id"]]

            # the listening socket died with the pool: same port, at once
            proc2, port2 = _spawn(journal, port=port, jobs=2, workers=2)
            assert port2 == port
            client2 = ServiceClient(port=port, timeout_s=10.0)
            recovered = client2.watch(job["job_id"], timeout_s=120.0)
            assert recovered["status"] == "done" and len(recovered["result"]) == 12
            finished = [
                e["job_id"] for e in read_events(journal)
                if e["event"] == "job_finished"
            ]
            assert finished == [job["job_id"]]  # not lost, not run twice
            proc2.send_signal(signal.SIGTERM)
            proc2.wait(timeout=15.0)
            assert _gone_within(proc2.pid, 3.0), _session_pids(proc2.pid)
        finally:
            for p in (proc, proc2):
                if p is not None:
                    try:
                        os.killpg(p.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
