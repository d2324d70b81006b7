"""The daemon over HTTP: routes, shedding, and crash recovery.

Everything here runs in-process on an ephemeral port with stubbed
cells, so the full listener -> scheduler -> journal stack is exercised
without subprocess orchestration (the subprocess SIGKILL acceptance
test lives in ``test_service_restart.py``).
"""

import http.client
import json
import os
import threading
import time

import pytest

from repro.experiments.sweep import SweepCell
from repro.serve.client import ServiceClient, ServiceError, ServiceUnavailable
from repro.serve.daemon import ServeDaemon
from repro.serve.journal import read_events
from repro.util.errors import ConfigurationError

#: released by tests that park the worker on a blocking cell
_GATE = threading.Event()


def _ok(value):
    return {"value": value}


def _blocked(value):
    _GATE.wait(timeout=30.0)
    return {"value": value}


def _fake_cells(spec):
    seed = spec.params["seed"]
    fn = _blocked if seed >= 500 else _ok
    return [SweepCell(key=(f"c{i}",), fn=fn, kwargs=dict(value=i))
            for i in range(max(seed % 10, 1))]


@pytest.fixture(autouse=True)
def _stub_cells(monkeypatch):
    monkeypatch.setattr("repro.serve.scheduler.build_cells", _fake_cells)
    _GATE.clear()
    yield
    _GATE.set()  # unblock any parked worker so threads drain


def _requests(daemon):
    """``serve.http.requests`` by route, read off the registry (a
    ``/metrics`` request would count itself)."""
    counters = daemon.metrics.snapshot()["counters"]
    prefix = "serve.http.requests{route="
    return {
        key[len(prefix):-1]: int(value)
        for key, value in counters.items()
        if key.startswith(prefix)
    }


def _raw_stream(daemon, job_id, since=0):
    """Every line of the events route, nothing filtered."""
    import json
    import urllib.request

    url = f"http://127.0.0.1:{daemon.port}/jobs/{job_id}/events?since={since}"
    with urllib.request.urlopen(url, timeout=5.0) as resp:
        return [json.loads(line) for line in resp if line.strip()]


def _daemon(tmp_path, **kwargs):
    kwargs.setdefault("pool_jobs", 1)
    daemon = ServeDaemon(tmp_path / "journal.jsonl", port=0, **kwargs)
    daemon.start_in_thread()
    return daemon, ServiceClient(port=daemon.port, timeout_s=5.0)


class TestRoutes:
    def test_health_and_metrics(self, tmp_path):
        daemon, client = _daemon(tmp_path)
        try:
            assert client.health()
            view = client.metrics()
            assert view["queue_depth"] == 0
            assert "breaker" not in view
            assert "counters" in view["metrics"]
        finally:
            daemon.stop()

    def test_requests_are_counted_by_route(self, tmp_path):
        daemon, client = _daemon(tmp_path)
        try:
            sub = client.submit("point", {"seed": 2})
            client.status(sub["job_id"])
            client.status(sub["job_id"])
            list(client.events(sub["job_id"]))
            client._held = None  # or result() would not ask
            client.result(sub["job_id"])
            client.overview()
            client.health()
            client.metrics()
            view = client.metrics()["metrics"]["counters"]
            assert view["serve.http.requests{route=metrics}"] == 2
            assert _requests(daemon) == {
                "submit": 1, "status": 2, "events": 1, "result": 1,
                "overview": 1, "healthz": 1, "metrics": 2,
            }
            with pytest.raises(ServiceError):
                client._request("GET", "/nope")  # no route, no count
            assert sum(_requests(daemon).values()) == 9
        finally:
            daemon.stop()

    def test_metrics_show_the_pool(self, tmp_path):
        daemon, client = _daemon(tmp_path, workers=2, pool_jobs=2)
        try:
            sub = client.submit("point", {"seed": 3})
            assert client.watch(sub["job_id"], timeout_s=10.0)["status"] == "done"
            view = client.metrics()["metrics"]
            assert view["gauges"]["serve.pool.processes"] == 2
            assert view["counters"]["serve.pool.spawns"] == 2
            assert "serve.pool.kills" not in view["counters"]
            # every cell ran in a pool process, none in this one
            pids = {e["pid"] for e in client.events(sub["job_id"])
                    if e["type"] == "cell"}
            assert len(pids) == 1 and os.getpid() not in pids
        finally:
            daemon.stop()

    def test_submit_wait_result_roundtrip(self, tmp_path):
        daemon, client = _daemon(tmp_path)
        try:
            sub = client.submit("point", {"seed": 3})
            assert sub["status"] in ("queued", "running", "done")
            body = client.watch(sub["job_id"], timeout_s=10.0)
            assert body["status"] == "done"
            assert body["result"]["c1"] == {"value": 1}
            status = client.status(sub["job_id"])
            assert status["cells_total"] == 3
        finally:
            daemon.stop()

    def test_unknown_routes_and_jobs_404(self, tmp_path):
        daemon, client = _daemon(tmp_path)
        try:
            with pytest.raises(ServiceError) as exc:
                client.status("j999999")
            assert exc.value.status == 404
            with pytest.raises(ServiceError) as exc:
                client._request("GET", "/nope")
            assert exc.value.status == 404
        finally:
            daemon.stop()

    def test_malformed_submissions_400(self, tmp_path):
        daemon, client = _daemon(tmp_path)
        try:
            with pytest.raises(ServiceError) as exc:
                client.submit("frobnicate")
            assert exc.value.status == 400
            with pytest.raises(ServiceError) as exc:
                client.submit("point", {"corse": 4})
            assert exc.value.status == 400
        finally:
            daemon.stop()

    def test_unconvertible_values_are_400_not_a_dropped_connection(
        self, tmp_path
    ):
        daemon, client = _daemon(tmp_path)
        try:
            for name, value, kind in (("seed", "abc", "int"),
                                      ("stealing", "false", "bool")):
                with pytest.raises(ServiceError, match=f"'{name}' must be {kind}"
                                   ) as exc:
                    client.submit("point", {name: value})
                assert exc.value.status == 400
            assert client.health()  # the handler thread lived to answer
        finally:
            daemon.stop()

    def test_out_of_range_values_are_400_not_a_failed_job(self, tmp_path):
        daemon, client = _daemon(tmp_path)
        try:
            for _ in range(3):
                with pytest.raises(ServiceError) as exc:
                    client.submit("fig9", {"core_counts": [0]})
                assert exc.value.status == 400
            assert client.overview()["jobs"] == []
        finally:
            daemon.stop()

    def test_a_knob_no_code_reads_is_400(self, tmp_path):
        daemon, client = _daemon(tmp_path)
        try:
            with pytest.raises(ServiceError, match="RunConfig.stealing") as exc:
                client.submit("chaos", {"codes": ["original"], "stealing": True})
            assert exc.value.status == 400
            assert client.overview()["jobs"] == []
        finally:
            daemon.stop()

    def test_unfinished_result_is_202_with_hint(self, tmp_path):
        daemon, client = _daemon(tmp_path)
        try:
            sub = client.submit("point", {"seed": 501})  # parks the worker
            body = client.result(sub["job_id"])
            assert body["status"] in ("queued", "running")
            assert body["retry_after_s"] > 0
            _GATE.set()
            assert client.watch(sub["job_id"])["status"] == "done"
        finally:
            daemon.stop()

    def test_overview_lists_jobs(self, tmp_path):
        daemon, client = _daemon(tmp_path)
        try:
            sub = client.submit("point", {"seed": 2})
            client.watch(sub["job_id"])
            view = client.overview()
            assert [j["job_id"] for j in view["jobs"]] == [sub["job_id"]]
        finally:
            daemon.stop()


class TestOneAnswerOneMessage:
    """A final answer rides the response that announces it."""

    def test_a_cold_job_is_two_requests_and_a_hit_is_one(self, tmp_path):
        daemon, client = _daemon(tmp_path)
        try:
            sub = client.submit("point", {"seed": 3})
            assert not sub["cached"]
            first = client.watch(sub["job_id"], timeout_s=10.0)
            assert first["status"] == "done" and "cached" not in first
            assert _requests(daemon) == {"submit": 1, "events": 1}

            # a repeat submission is the job that answered it
            again = client.submit("point", {"seed": 3})
            assert again == {
                "job_id": sub["job_id"], "status": "done", "cached": True,
            }
            hit = client.watch(again["job_id"], timeout_s=10.0)
            assert _requests(daemon) == {"submit": 2, "events": 1}
            assert hit == {**first, "cached": True}
            # the route's answer without the flag, handed over once
            assert client.result(again["job_id"]) == first
            assert _requests(daemon) == {"submit": 2, "events": 1, "result": 1}
        finally:
            daemon.stop()

    def test_a_hit_journals_nothing(self, tmp_path):
        daemon, client = _daemon(tmp_path)
        try:
            first = client.submit("point", {"seed": 2})
            client.watch(first["job_id"])
            path = tmp_path / "journal.jsonl"
            before = path.read_bytes()
            for _ in range(3):
                assert client.submit("point", {"seed": 2})["job_id"] == (
                    first["job_id"])
            assert path.read_bytes() == before
            assert client.overview()["cache"] == {
                "entries": 1, "hits": 3, "misses": 1, "cell_hits": 0,
            }
        finally:
            daemon.stop()

    def test_result_line_is_held_for_the_traced_client(self, tmp_path):
        """``events()`` then ``result()``: two requests besides... none."""
        daemon, client = _daemon(tmp_path)
        try:
            sub = client.submit("point", {"seed": 3})
            kinds = [e["type"] for e in client.events(sub["job_id"])]
            assert kinds == ["started", "cell", "cell", "cell", "finished"]
            body = client.result(sub["job_id"])
            assert body["status"] == "done" and "type" not in body
            assert _requests(daemon) == {"submit": 1, "events": 1}
            # another job's body is not this job's answer
            other = client.submit("point", {"seed": 2})
            list(client.events(other["job_id"]))  # its result line, held
            assert client.result(sub["job_id"])["job_id"] == sub["job_id"]
            assert client.result(other["job_id"])["job_id"] == other["job_id"]
            assert _requests(daemon)["result"] == 2
        finally:
            daemon.stop()

    def test_watch_gives_up_at_its_deadline(self, tmp_path):
        daemon, client = _daemon(tmp_path)
        try:
            sub = client.submit("point", {"seed": 501})  # parks the worker
            start = time.monotonic()
            with pytest.raises(ServiceError, match="still unfinished after 0.3s"):
                client.watch(sub["job_id"], timeout_s=0.3)
            assert 0.25 < time.monotonic() - start < 2.0
            _GATE.set()
            assert client.watch(sub["job_id"], timeout_s=10.0)["status"] == "done"
        finally:
            daemon.stop()


#: request bodies (and a Content-Length, where it is the fault) that
#: are not a submission; each used to drop the connection
_MALFORMED = {
    "list": (None, b"[1]"),
    "string": (None, b'"x"'),
    "params_list": (None, b'{"kind": "point", "params": [1, 2]}'),
    "params_string": (None, b'{"kind": "point", "params": "abc"}'),
    "not_utf8": (None, b'{"kind": "\xff"}'),
    "length_not_an_int": ("ten", b""),
    "length_negative": ("-1", b""),
}


class TestMalformedSubmission:
    @pytest.mark.parametrize(
        "length, body", list(_MALFORMED.values()), ids=list(_MALFORMED)
    )
    def test_answers_400_and_stays_healthy(self, tmp_path, length, body):
        daemon, client = _daemon(tmp_path)
        try:
            conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=5.0)
            try:
                conn.putrequest("POST", "/jobs")
                conn.putheader("Content-Type", "application/json")
                conn.putheader("Content-Length", length or str(len(body)))
                conn.endheaders(body)
                resp = conn.getresponse()
                assert resp.status == 400
                assert json.loads(resp.read())["error"]
            finally:
                conn.close()
            assert client.health()
            assert client.overview()["queue_depth"] == 0
        finally:
            daemon.stop()


class TestShedding:
    def test_saturation_returns_503_with_retry_after(self, tmp_path, monkeypatch):
        # depth counts queued + running: the parked job is 1, one more
        # queues to 2, the third submission must shed
        monkeypatch.setattr("repro.serve.scheduler.MAX_QUEUE_DEPTH", 2)
        daemon, client = _daemon(tmp_path)
        try:
            client.submit("point", {"seed": 501})  # parks the worker
            client.submit("point", {"seed": 1})  # fills the queue
            with pytest.raises(ServiceUnavailable) as exc:
                client.submit("point", {"seed": 2})
            assert exc.value.retry_after_s > 0
            counters = client.metrics()["metrics"]["counters"]
            assert counters["serve.jobs.rejected"] == 1
        finally:
            _GATE.set()
            daemon.stop()

    @pytest.mark.parametrize(
        "knob", ["breaker_config", "aging_s", "retry", "cell_timeout", "retries"]
    )
    def test_thresholds_are_not_settings(self, tmp_path, knob):
        with pytest.raises(TypeError):
            ServeDaemon(tmp_path / "journal.jsonl", port=0, **{knob: None})
        assert not (tmp_path / "journal.jsonl").exists()

    @pytest.mark.parametrize("sizes", [dict(workers=0), dict(pool_jobs=0),
                                       dict(pool_jobs=-3)],
                             ids=["workers-0", "pool_jobs-0", "pool_jobs-negative"])
    def test_a_size_below_one_is_refused_before_the_journal_opens(
        self, tmp_path, sizes
    ):
        with pytest.raises(ConfigurationError, match=next(iter(sizes))):
            ServeDaemon(tmp_path / "journal.jsonl", port=0, **sizes)
        assert list(tmp_path.iterdir()) == []


class TestRestartRecovery:
    def test_clean_restart_serves_cached_results(self, tmp_path):
        daemon, client = _daemon(tmp_path)
        sub = client.submit("point", {"seed": 2})
        first = client.watch(sub["job_id"])
        daemon.stop()

        daemon2, client2 = _daemon(tmp_path)
        try:
            again = client2.submit("point", {"seed": 2})
            assert again["cached"] and again["status"] == "done"
            assert again["job_id"] == sub["job_id"]
            assert client2.result(again["job_id"])["result"] == first["result"]
        finally:
            daemon2.stop()

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_crash_loses_no_jobs_and_duplicates_no_results(self, tmp_path):
        # daemon 1: one job parked mid-run, one queued behind it — then
        # the process "dies" (no graceful stop, no daemon_stopped line)
        daemon, client = _daemon(tmp_path)
        running = client.submit("point", {"seed": 501})
        queued = client.submit("point", {"seed": 3})
        time.sleep(0.05)  # the first job reaches job_started
        daemon._server.shutdown()
        daemon._server.server_close()
        daemon.journal.close()  # a killed process writes nothing more:
        # if the abandoned worker thread ever wakes, its append raises
        # instead of racing the new daemon's journal

        events = read_events(tmp_path / "journal.jsonl")
        assert "daemon_stopped" not in [e["event"] for e in events]

        # daemon 2 over the same journal: both jobs recover and finish
        daemon2, client2 = _daemon(tmp_path)
        try:
            assert len(daemon2.recovered.pending) == 2
            _GATE.set()  # recovered cells run the same (now open) gate
            for job_id in (running["job_id"], queued["job_id"]):
                body = client2.watch(job_id, timeout_s=10.0)
                assert body["status"] == "done", job_id
            finished = [
                e for e in read_events(tmp_path / "journal.jsonl")
                if e["event"] == "job_finished"
            ]
            # exactly one finish per job: recovered, not duplicated
            assert sorted(e["job_id"] for e in finished) == sorted(
                [running["job_id"], queued["job_id"]]
            )
        finally:
            daemon2.stop()

    def test_restarted_daemon_keeps_job_ids_unique(self, tmp_path):
        daemon, client = _daemon(tmp_path)
        first = client.submit("point", {"seed": 1})
        client.watch(first["job_id"])
        daemon.stop()

        daemon2, client2 = _daemon(tmp_path)
        try:
            second = client2.submit("point", {"seed": 2})
            assert second["job_id"] != first["job_id"]
        finally:
            daemon2.stop()

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_crash_with_two_jobs_in_flight_recovers_both(self, tmp_path):
        """workers=2: both jobs are mid-run when the daemon "dies";
        the reboot re-runs both, finishing each exactly once."""
        daemon, client = _daemon(tmp_path, workers=2)
        a = client.submit("point", {"seed": 501})  # parked on the gate
        b = client.submit("point", {"seed": 502})  # parked on the gate
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            started = [
                e["job_id"]
                for e in read_events(tmp_path / "journal.jsonl")
                if e["event"] == "job_started"
            ]
            if len(started) == 2:
                break
            time.sleep(0.01)
        assert sorted(started) == sorted([a["job_id"], b["job_id"]])
        daemon._server.shutdown()
        daemon._server.server_close()
        daemon.journal.close()  # simulated SIGKILL: nothing more lands

        daemon2, client2 = _daemon(tmp_path, workers=2)
        try:
            assert len(daemon2.recovered.pending) == 2
            _GATE.set()
            for job_id in (a["job_id"], b["job_id"]):
                assert client2.watch(job_id, timeout_s=10.0)["status"] == "done"
            finished = [
                e for e in read_events(tmp_path / "journal.jsonl")
                if e["event"] == "job_finished"
            ]
            assert sorted(e["job_id"] for e in finished) == sorted(
                [a["job_id"], b["job_id"]]
            )
        finally:
            daemon2.stop()


class TestConcurrencyOverHTTP:
    def test_two_jobs_observably_running(self, tmp_path):
        daemon, client = _daemon(tmp_path, workers=2)
        try:
            a = client.submit("point", {"seed": 501})
            b = client.submit("point", {"seed": 502})
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                running = client.overview()["running"]
                if len(running) == 2:
                    break
                time.sleep(0.01)
            assert sorted(running) == sorted([a["job_id"], b["job_id"]])
            assert client.metrics()["workers"] == 2
            _GATE.set()
            assert client.watch(a["job_id"])["status"] == "done"
            assert client.watch(b["job_id"])["status"] == "done"
        finally:
            _GATE.set()
            daemon.stop()

    def test_priority_rides_the_submission(self, tmp_path):
        daemon, client = _daemon(tmp_path)
        try:
            client.submit("point", {"seed": 501})  # park the worker
            sub = client.submit("point", {"seed": 2, "priority": 3})
            assert client.status(sub["job_id"])["priority"] == 3
            _GATE.set()
            assert client.watch(sub["job_id"])["status"] == "done"
        finally:
            _GATE.set()
            daemon.stop()


class TestEventStream:
    def test_stream_carries_started_cells_finished(self, tmp_path):
        daemon, client = _daemon(tmp_path)
        try:
            sub = client.submit("point", {"seed": 3})
            events = list(client.events(sub["job_id"]))
            assert events[0]["type"] == "started"
            assert events[-1]["type"] == "finished"
            cells = [e for e in events if e["type"] == "cell"]
            assert len(cells) == 3
            assert cells[-1]["cells_done"] == cells[-1]["cells_total"] == 3
            assert all(c["ok"] for c in cells)
        finally:
            daemon.stop()

    def test_stream_resumes_after_since(self, tmp_path):
        daemon, client = _daemon(tmp_path)
        try:
            sub = client.submit("point", {"seed": 2})
            first = list(client.events(sub["job_id"]))
            # a reconnecting client never re-reads what it saw
            assert list(client.events(sub["job_id"], since=len(first))) == []
            resumed = list(client.events(sub["job_id"], since=1))
            assert resumed == first[1:]
        finally:
            daemon.stop()

    def test_stream_follows_a_live_job(self, tmp_path):
        daemon, client = _daemon(tmp_path)
        try:
            sub = client.submit("point", {"seed": 501})  # parked
            seen = []

            def follow():
                seen.extend(client.events(sub["job_id"]))

            reader = threading.Thread(target=follow)
            reader.start()
            time.sleep(0.1)  # the stream is attached before any finish
            _GATE.set()
            reader.join(timeout=10)
            assert not reader.is_alive()
            assert seen[-1]["type"] == "finished"
        finally:
            _GATE.set()
            daemon.stop()

    def test_a_finished_jobs_stream_ends_with_the_result_line(self, tmp_path):
        daemon, client = _daemon(tmp_path)
        try:
            sub = client.submit("point", {"seed": 2})
            body = client.watch(sub["job_id"])
            for since in (0, 1, 4, 99):  # opened late, and past the last event
                lines = _raw_stream(daemon, sub["job_id"], since)
                assert [e["seq"] for e in lines[:-1]] == list(range(since + 1, 5))
                assert lines[-1] == {"type": "result", **body}
            # built at stream time: never an event, never counted by since
            assert len(daemon.scheduler.get(sub["job_id"]).events) == 4
        finally:
            daemon.stop()

    def test_a_stream_cut_by_stop_has_no_result_line(self, tmp_path):
        daemon, client = _daemon(tmp_path)
        try:
            sub = client.submit("point", {"seed": 501})  # parked
            lines, watched = [], []
            readers = [
                threading.Thread(
                    target=lambda: lines.extend(_raw_stream(daemon, sub["job_id"]))
                ),
                threading.Thread(
                    target=lambda: watched.append(client.watch(sub["job_id"]))
                ),
            ]
            for reader in readers:
                reader.start()
            deadline = time.monotonic() + 10
            while _requests(daemon).get("events", 0) < 2:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            daemon.scheduler.stop()  # the listener is still up
            for reader in readers:
                reader.join(timeout=10)
                assert not reader.is_alive()
            assert [e["type"] for e in lines] == ["started"]
            # watch fell back to the route, which says what it said before
            assert watched[0]["status"] == "running"
            assert watched[0]["retry_after_s"] > 0
            assert _requests(daemon)["result"] == 1
        finally:
            _GATE.set()
            daemon.stop()

    def test_watch_returns_the_result(self, tmp_path):
        daemon, client = _daemon(tmp_path)
        try:
            sub = client.submit("point", {"seed": 3})
            body = client.watch(sub["job_id"], timeout_s=10.0)
            assert body["status"] == "done"
            assert body["result"]["c2"] == {"value": 2}
        finally:
            daemon.stop()

    def test_bad_since_is_400_and_unknown_job_404(self, tmp_path):
        daemon, client = _daemon(tmp_path)
        try:
            sub = client.submit("point", {"seed": 1})
            client.watch(sub["job_id"])
            with pytest.raises(ServiceError) as exc:
                client._request(
                    "GET", f"/jobs/{sub['job_id']}/events?since=abc"
                )
            assert exc.value.status == 400
            with pytest.raises(ServiceError) as exc:
                list(client.events("j999999"))
            assert exc.value.status == 404
        finally:
            daemon.stop()


class TestJournalHygiene:
    def test_corrupt_lines_surface_in_boot_record_and_metrics(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("this line is not json\n")
        daemon, client = _daemon(tmp_path)
        try:
            assert daemon.corrupt_lines == 1
            boot = next(
                e for e in read_events(path) if e["event"] == "daemon_started"
            )
            assert boot["corrupt_lines"] == 1
            view = client.metrics()
            assert view["journal"]["corrupt_lines"] == 1
            assert view["journal"]["size_bytes"] > 0
        finally:
            daemon.stop()

    def test_boot_reads_the_journal_once(self, tmp_path, monkeypatch):
        from repro.serve import daemon as daemon_module, journal as journal_module

        daemon, client = _daemon(tmp_path)
        sub = client.submit("point", {"seed": 2})
        client.watch(sub["job_id"])
        daemon.stop()
        last_seq = read_events(tmp_path / "journal.jsonl")[-1]["seq"]
        reads = []

        def counting(path, _read=read_events):
            reads.append(path)
            return _read(path)

        for module in (daemon_module, journal_module):
            monkeypatch.setattr(module, "read_events", counting)
        daemon2 = ServeDaemon(tmp_path / "journal.jsonl", port=0, pool_jobs=1)
        try:
            assert len(reads) == 1
            # the journal was still seeded from the events the daemon read
            boot = daemon2.journal.append("probe")
            assert boot["seq"] == last_seq + 2  # after daemon_started
            assert daemon2.journal.reserve_id() > sub["job_id"]
        finally:
            daemon2.start_in_thread()
            daemon2.stop()

    def test_clean_stop_compacts_into_a_snapshot(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        daemon, client = _daemon(tmp_path)
        sub = client.submit("point", {"seed": 2})
        first = client.watch(sub["job_id"])
        daemon.stop()
        events = read_events(path)
        # one snapshot folding the whole history, then the stop marker
        assert [e["event"] for e in events] == ["snapshot", "daemon_stopped"]
        assert events[-1]["clean"] is True

        daemon2, client2 = _daemon(tmp_path)
        try:
            # the compacted journal serves identical status and result
            assert client2.status(sub["job_id"])["status"] == "done"
            assert client2.result(sub["job_id"])["result"] == first["result"]
            again = client2.submit("point", {"seed": 2})
            assert again["cached"]
        finally:
            daemon2.stop()

    def test_size_trigger_shrinks_a_growing_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        daemon, client = _daemon(tmp_path, compact_bytes=2000)
        try:
            # only work grows a journal: three lines per cold job
            sizes = []
            for seed in range(11, 21):
                sub = client.submit("point", {"seed": seed})
                client.watch(sub["job_id"])
                sizes.append(path.stat().st_size)
            view = client.metrics()
            assert view["journal"]["compactions"] >= 1
            # an append-only file only ever grows; a shrink between
            # measurements is the snapshot fold at work
            assert any(b < a for a, b in zip(sizes, sizes[1:])), sizes
            snapshots = [
                e for e in read_events(path) if e["event"] == "snapshot"
            ]
            assert snapshots
        finally:
            daemon.stop()


class TestStopWithoutServing:
    """``stop()`` waits for no HTTP loop that never ran, and
    ``serve_forever()`` after ``stop()`` returns instead of serving a
    closed socket: the window between ``start()`` and ``serve_forever()``
    that a signal can land in."""

    @staticmethod
    def _returns(fn):
        thread = threading.Thread(target=fn, daemon=True)
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive(), f"{fn.__name__}() still blocked after 10 s"

    def test_stop_of_a_daemon_that_never_served(self, tmp_path):
        daemon = ServeDaemon(tmp_path / "journal.jsonl", port=0, pool_jobs=1)
        self._returns(daemon.stop)

    def test_stop_between_start_and_serve_forever(self, tmp_path):
        daemon = ServeDaemon(tmp_path / "journal.jsonl", port=0, pool_jobs=1)
        daemon.start()
        self._returns(daemon.stop)
        self._returns(daemon.serve_forever)
        assert read_events(tmp_path / "journal.jsonl")[-1]["event"] == "daemon_stopped"
