"""The ``repro serve`` daemon: a local HTTP front end over the scheduler.

Stdlib only — a ``ThreadingHTTPServer`` on localhost. HTTP threads are
the *listener* plane: they parse, consult the scheduler under its lock,
and answer; all simulation work happens in the scheduler's pool
processes (``workers`` concurrent jobs, each on its worker's own warm
pool), outside this interpreter's lock unless ``pool_jobs`` is 1.

Routes (each counted in ``serve.http.requests{route=...}``)::

    POST /jobs   {"kind": ..., "params": {...}}                      submit
        202 {"job_id", "status", "cached"}   admitted; a hit (the spec's
            job is done: this is that job) is all of GET /jobs/<id>/result
            plus "cached": true
        503 {"error", "reason", "retry_after_s"}   the queue is full
        400 {"error"}                              malformed spec
    GET  /jobs              queue, cache, job table, the ids
                            now running (a list: N at once)        overview
    GET  /jobs/<id>         one job's status                         status
    GET  /jobs/<id>/result  200 result | 202 {"status", "retry_after_s"}
    GET  /jobs/<id>/events  progress stream, one JSON line per event
        (started / per-cell completion / finished); ``?since=N`` resumes
        after the N-th event; the connection closes when the job is
        final, so a client reads to EOF instead of polling. A final
        job's stream ends with one {"type": "result", ...} line: the
        /result body, built as it is written (not an event: no seq, not
        counted by ``since``). A stream cut by shutdown has none.
    GET  /metrics           MetricsRegistry snapshot + service gauges
    GET  /healthz           {"ok": true}

Boot replays the journal (see :mod:`repro.serve.journal`): finished
jobs are served without re-running, a ``done`` one answering its digest
again; submitted-or-started-but-unfinished jobs are requeued, so
a SIGKILL loses no job and duplicates no result. Torn/corrupt lines
skipped during that replay are *counted* and reported — in the
``daemon_started`` record (``corrupt_lines=``) and on ``/metrics`` —
instead of vanishing silently. A clean shutdown compacts the journal
into one snapshot line before the final ``daemon_stopped`` marker.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.obs.registry import MetricsRegistry
from repro.serve.journal import FINAL_STATES, Journal, read_events, rebuild
from repro.serve.scheduler import JobScheduler, SubmissionRejected
from repro.util.errors import ConfigurationError, ReproError

__all__ = ["ServeDaemon"]

_JOB_PATH = re.compile(r"^/jobs/([A-Za-z0-9_-]+)(/result|/events)?$")

#: polling hint returned with 202 "not finished yet" responses
_POLL_HINT_S = 0.5

#: long-poll slice for the /events route; between slices the handler
#: emits a keepalive line so idle streams keep defeating client
#: read timeouts
_EVENT_WAIT_S = 5.0


class _Handler(BaseHTTPRequestHandler):
    daemon: "ServeDaemon"  # injected via the server instance

    # ------------------------------------------------------------------
    def _send(self, code: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _line(self, payload: dict) -> None:
        self.wfile.write((json.dumps(payload, sort_keys=True) + "\n").encode())

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # requests are not worth a stderr line each

    # ------------------------------------------------------------------
    def _stream_events(self, job_id: str, since: int) -> None:
        """Serve ``/jobs/<id>/events``: newline-delimited JSON, one
        record per scheduler event, connection close marks the end.

        HTTP/1.0 semantics: no Content-Length, the body is everything
        until close — what a stream unbounded in advance needs. Lines
        are flushed as they happen; the last one of a final job is its
        result.
        """
        daemon = self.daemon
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        cursor, final = max(since, 0), False
        try:
            while not final:
                events, final = daemon.scheduler.events_since(
                    job_id, cursor, wait_s=_EVENT_WAIT_S
                )
                for event in events:
                    self._line(event)
                cursor += len(events)
                if final:
                    record = daemon.scheduler.get(job_id)
                    if record.status in FINAL_STATES:  # not cut by stop()
                        self._line({"type": "result", **record.to_result_dict()})
                elif not events:  # quiet long-poll slice: keep it alive
                    self._line({"type": "keepalive"})
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            return  # the client hung up; nothing to clean up

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        daemon = self.daemon
        parsed = urlparse(self.path)
        if parsed.path == "/healthz":
            daemon.count_request("healthz")
            self._send(200, {"ok": True})
            return
        if parsed.path == "/metrics":
            daemon.count_request("metrics")
            self._send(200, daemon.metrics_view())
            return
        if parsed.path == "/jobs":
            daemon.count_request("overview")
            self._send(200, daemon.scheduler.overview())
            return
        match = _JOB_PATH.match(parsed.path)
        if match is None:
            self._send(404, {"error": f"no such route: {self.path}"})
            return
        job_id, sub = match.group(1), match.group(2) or ""
        daemon.count_request(sub[1:] or "status")
        record = daemon.scheduler.get(job_id)
        if record is None:
            self._send(404, {"error": f"unknown job {job_id}"})
            return
        if sub == "/events":
            query = parse_qs(parsed.query)
            try:
                since = int(query.get("since", ["0"])[0])
            except ValueError:
                self._send(400, {"error": "since must be an integer"})
                return
            self._stream_events(job_id, since)
            return
        if not sub:
            self._send(200, record.to_status_dict())
            return
        if record.status in ("queued", "running"):
            self._send(
                202,
                {"job_id": job_id, "status": record.status,
                 "retry_after_s": _POLL_HINT_S},
            )
            return
        self._send(200, record.to_result_dict())

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        daemon = self.daemon
        if self.path != "/jobs":
            self._send(404, {"error": f"no such route: {self.path}"})
            return
        daemon.count_request("submit")
        try:
            kind, params = self._read_submission()
            body = daemon.scheduler.admit(kind, params)
        except SubmissionRejected as exc:
            self._send(
                503,
                {"error": str(exc), "reason": exc.reason,
                 "retry_after_s": exc.retry_after_s},
            )
        except ReproError as exc:
            self._send(400, {"error": str(exc)})
        else:
            self._send(202, body)

    def _read_submission(self) -> tuple[str, dict]:
        """``(kind, params)`` of the request body; anything else a client
        can send raises :class:`ConfigurationError` (the caller's 400)."""
        raw = self.headers.get("Content-Length", "0")
        try:
            length = int(raw)
            if length < 0:
                raise ValueError
        except ValueError:
            raise ConfigurationError(f"bad Content-Length {raw!r}") from None
        try:
            payload = json.loads(self.rfile.read(length) or b"{}")
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigurationError(f"submission is not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ConfigurationError("submission must be a JSON object")
        kind = payload.get("kind")
        if not isinstance(kind, str):
            raise ConfigurationError("submission needs a 'kind' string")
        params = payload.get("params")
        if not isinstance(params, (dict, type(None))):
            raise ConfigurationError("'params' must be a JSON object or null")
        params = dict(params or {})
        if "priority" in payload:
            params.setdefault("priority", payload["priority"])
        return kind, params

    @property
    def daemon(self) -> "ServeDaemon":
        return self.server.daemon  # type: ignore[attr-defined]


class ServeDaemon:
    """Journal + scheduler + HTTP server, assembled.

    ``port=0`` binds an ephemeral port (read it back from ``.port``
    after :meth:`start`). The daemon is restart-transparent: point a
    new instance at the same journal and it resumes where the old one
    — cleanly stopped or SIGKILLed — left off. ``workers`` jobs run
    simultaneously, each in its worker's ``max(1, pool_jobs // workers)``
    pool processes (forked by :meth:`start`, killed by :meth:`stop`);
    ``compact_bytes`` arms size-triggered journal compaction (clean
    shutdown always compacts). A worker or process count below one, and
    a port in use, are refused before the journal is opened.
    """

    def __init__(
        self,
        journal_path,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        pool_jobs: int = 2,
        compact_bytes: int = 0,
    ) -> None:
        JobScheduler.check_sizes(workers, pool_jobs)
        # bind first: a port in use raises before the journal is touched
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._server.daemon = self  # type: ignore[attr-defined]
        self.host, self.port = self._server.server_address[:2]
        self.metrics = MetricsRegistry(enabled=True, clock=time.monotonic)
        try:
            events = read_events(journal_path)
            recovered = rebuild(events)
            self.corrupt_lines = events.corrupt_lines
            self.journal = Journal(journal_path, compact_bytes, existing=events)
        except BaseException:
            self._server.server_close()
            raise
        self.scheduler = JobScheduler(
            journal=self.journal,
            metrics=self.metrics,
            workers=workers,
            pool_jobs=pool_jobs,
        )
        self.scheduler.recover(recovered)
        self.journal.append(
            "daemon_started",
            recovered_jobs=len(recovered.pending),
            recovered_results=len(recovered.done),
            corrupt_lines=self.corrupt_lines,
        )
        self.metrics.gauge_set(
            "serve.journal.corrupt_lines", float(self.corrupt_lines)
        )
        self.recovered = recovered
        self._stopped = False
        #: an HTTP loop was entered: ``BaseServer.shutdown()`` waits for
        #: one, so :meth:`stop` calls it only then
        self._serving = False
        self._lifecycle = threading.Lock()
        # bound here, before any thread: a request inserts no series while
        # the scheduler emits or /metrics iterates the same registry
        self._requests = {
            route: self.metrics.counter("serve.http.requests", route=route)
            for route in ("submit", "status", "result", "events", "metrics",
                          "healthz", "overview")
        }
        self._requests_lock = threading.Lock()  # HTTP threads are many

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Fork the pools, start the workers; the HTTP loop still needs
        serve_forever() (or start_in_thread() for in-process embedding)."""
        self.scheduler.start()

    def start_in_thread(self) -> None:
        self.start()
        thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-http",
            kwargs={"poll_interval": 0.1}, daemon=True,
        )
        thread.start()

    def serve_forever(self, poll_interval: float = 0.2) -> None:
        """Serve HTTP until :meth:`stop`; after it, return at once."""
        with self._lifecycle:
            if self._stopped:
                return
            self._serving = True
        self._server.serve_forever(poll_interval=poll_interval)

    def stop(self) -> None:
        """Graceful shutdown: journal the in-flight jobs for resumption
        and kill the pools, compact the journal into a snapshot, append
        the clean-stop marker, flush and close the journal, close the
        socket. Safe before, during or without :meth:`serve_forever`."""
        with self._lifecycle:
            if self._stopped:
                return
            self._stopped = True
        self.scheduler.stop()
        try:
            self.journal.compact()
        except Exception:  # pragma: no cover - compaction must not
            pass  # block shutdown; the uncompacted journal replays fine
        self.journal.append("daemon_stopped", clean=True)
        self.journal.close()
        if self._serving:  # no loop can start now: _stopped is set
            try:
                self._server.shutdown()
            except Exception:  # pragma: no cover - shutdown race
                pass
        self._server.server_close()

    # ------------------------------------------------------------------
    def count_request(self, route: str) -> None:
        """One more request on a known route (``serve.http.requests``)."""
        with self._requests_lock:
            self._requests[route].value += 1.0

    def metrics_view(self) -> dict:
        """The /metrics payload: registry snapshot + live service state."""
        view = self.scheduler.overview()
        del view["jobs"]
        return {
            **view,
            "metrics": self.metrics.snapshot(),
            "journal": {
                "corrupt_lines": self.corrupt_lines,
                "size_bytes": self.journal.size_bytes(),
                "compactions": self.journal.compactions,
            },
        }
