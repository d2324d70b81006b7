"""Client for the ``repro serve`` daemon — stdlib ``urllib`` only.

Wraps the small JSON-over-HTTP protocol the daemon speaks so the CLI
subcommands (``repro submit``/``status``/``result``) and tests never
hand-roll requests. A 503 (the daemon's queue is full) surfaces as
:class:`ServiceUnavailable` carrying the daemon's ``retry_after_s``
hint; every other error status raises :class:`ServiceError` with the
daemon's message.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from typing import Optional

from repro.util.errors import ReproError

__all__ = ["ServiceClient", "ServiceError", "ServiceUnavailable"]


class ServiceError(ReproError):
    """The daemon answered with an error status."""

    def __init__(self, message: str, status: int = 0) -> None:
        super().__init__(message)
        self.status = status


class ServiceUnavailable(ServiceError):
    """The daemon's queue is full; honor ``retry_after_s``."""

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(message, status=503)
        self.retry_after_s = retry_after_s


class ServiceClient:
    def __init__(
        self, host: str = "127.0.0.1", port: int = 8642,
        timeout_s: float = 10.0,
    ) -> None:
        self.base = f"http://{host}:{port}"
        self.timeout_s = timeout_s
        #: the one final body received ahead of the call that asks for it
        self._held: Optional[dict] = None

    # ------------------------------------------------------------------
    @contextmanager
    def _open(
        self, method: str, path: str, timeout_s: float,
        payload: Optional[dict] = None,
    ):
        """The open response of one request; an error status or an
        unreachable daemon raises."""
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            self.base + path, data=data, method=method, headers=headers
        )
        try:
            with urllib.request.urlopen(req, timeout=timeout_s) as resp:
                yield resp
        except urllib.error.HTTPError as exc:
            try:
                body = json.loads(exc.read() or b"{}")
            except json.JSONDecodeError:
                body = {}
            message = body.get("error", f"HTTP {exc.code}")
            if exc.code == 503:
                raise ServiceUnavailable(
                    message, float(body.get("retry_after_s") or 1.0)
                ) from None
            raise ServiceError(message, status=exc.code) from None
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach daemon at {self.base}: {exc.reason}"
            ) from None

    def _request(self, method: str, path: str, payload: Optional[dict] = None):
        with self._open(method, path, self.timeout_s, payload) as resp:
            return resp.status, json.loads(resp.read() or b"{}")

    # ------------------------------------------------------------------
    def _take(self, job_id: str) -> Optional[dict]:
        """The held final body, if it is this job's; forgotten either way."""
        held, self._held = self._held, None
        return held if held and held["job_id"] == job_id else None

    def submit(self, kind: str, params: Optional[dict] = None) -> dict:
        """POST a job; returns ``{"job_id", "status", "cached"}``. A
        hit (the spec's job is done) also carries the result, which is
        held for the :meth:`result`/:meth:`watch` that follows: a hit is
        one request."""
        _, body = self._request(
            "POST", "/jobs", {"kind": kind, "params": params or {}}
        )
        if "result" in body:
            self._held = body
        return {k: body[k] for k in ("job_id", "status", "cached")}

    def status(self, job_id: str) -> dict:
        _, body = self._request("GET", f"/jobs/{job_id}")
        return body

    def result(self, job_id: str) -> dict:
        """The job's result; a still-running job returns its 202 body
        (``status`` queued/running plus a ``retry_after_s`` hint). A
        final body the last :meth:`submit` or stream already brought is
        handed over from memory, once, without a request."""
        held = self._take(job_id)
        if held is not None:
            return held
        _, body = self._request("GET", f"/jobs/{job_id}/result")
        return body

    def _stream(self, job_id: str, since: int, timeout_s: float):
        """The lines of ``GET /jobs/<id>/events`` as dicts, keepalives
        included; the closing ``result`` line is held, not yielded."""
        path = f"/jobs/{job_id}/events?since={int(since)}"
        with self._open("GET", path, timeout_s) as resp:
            for raw in resp:
                if not raw.strip():
                    continue
                line = json.loads(raw)
                if line.get("type") == "result":
                    del line["type"]
                    self._held = line
                else:
                    yield line

    def events(self, job_id: str, since: int = 0):
        """Stream a job's progress events as they happen.

        Generator over the daemon's ``GET /jobs/<id>/events`` route:
        yields one dict per event (``started``, per-cell ``cell``
        completions, terminal ``finished``) and returns when the
        daemon closes the stream — i.e. when the job is final. Two
        kinds of line are not events and are filtered out: keepalives
        (quiet long-poll slices) and the closing ``result`` line, held
        for the :meth:`result` call that follows. ``since`` resumes
        after the N-th event: a reconnecting client re-reads nothing.
        """
        for line in self._stream(job_id, since, self.timeout_s):
            if line.get("type") != "keepalive":
                yield line

    def watch(self, job_id: str, timeout_s: float = 300.0) -> dict:
        """The job's result payload, as soon as it is final: the body
        already held (a hit: no request), else the ``result`` line its
        event stream ends with (a cold job: two requests with the
        submit); a stream cut by a stopping daemon falls back to ``GET
        /result``. Raises :class:`ServiceError` once ``timeout_s`` is
        over, noticed at every line, keepalives included."""
        held = self._take(job_id)
        if held is not None:
            return held
        deadline = time.monotonic() + timeout_s
        seen = 0
        while (left := deadline - time.monotonic()) > 0:
            try:
                for line in self._stream(job_id, seen, min(self.timeout_s, left)):
                    seen += line.get("type") != "keepalive"
                    if time.monotonic() >= deadline:
                        break
                else:  # stream closed: the job is final, or the daemon went
                    return self.result(job_id)
            except TimeoutError:
                pass  # idle longer than the socket timeout; resume
        raise ServiceError(f"job {job_id} still unfinished after {timeout_s}s")

    def overview(self) -> dict:
        _, body = self._request("GET", "/jobs")
        return body

    def metrics(self) -> dict:
        _, body = self._request("GET", "/metrics")
        return body

    def health(self) -> bool:
        try:
            status, body = self._request("GET", "/healthz")
        except ServiceError:
            return False
        return status == 200 and bool(body.get("ok"))
