"""The circuit breaker: shed load instead of drowning in it.

Classic three-state breaker guarding the admission path of the service:

- **closed** — submissions flow. Job failures (poisoned cells, failed
  sweeps) are counted in a sliding window of ``WINDOW_S`` seconds;
  ``FAILURE_THRESHOLD`` of them trip the breaker.
- **open** — submissions are rejected immediately with a
  ``retry_after_s`` hint; after ``COOLDOWN_S`` the breaker half-opens.
- **half-open** — one probe submission is admitted. Success closes the
  breaker and clears the failure window; failure re-opens it (the
  cooldown restarts).

Queue saturation is handled by the same ``admit`` gate but does not
change the breaker state: a queue holding ``MAX_QUEUE_DEPTH`` jobs is
back-pressure (shed and retry), not evidence the backend is sick.

The four thresholds are module constants, read at each decision; the
clock is injected so tests never sleep.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs.registry import NULL_METRICS, MetricsRegistry

__all__ = ["CircuitBreaker", "Admission"]

#: gauge encoding of the state, for the /metrics view
_STATE_GAUGE = {"closed": 0.0, "half-open": 1.0, "open": 2.0}


#: submissions (beyond the running jobs) the queue may hold
MAX_QUEUE_DEPTH = 16
#: job failures within ``WINDOW_S`` seconds that trip the breaker
FAILURE_THRESHOLD = 3
WINDOW_S = 60.0
#: open duration before one probe is allowed through
COOLDOWN_S = 5.0


@dataclass(frozen=True)
class Admission:
    """One admission decision. ``retry_after_s`` is set on rejection."""

    allowed: bool
    reason: str = "ok"
    retry_after_s: Optional[float] = None


class CircuitBreaker:
    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.monotonic,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.clock = clock
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.state = "closed"
        #: serializes state transitions: HTTP threads admit while N
        #: scheduler workers record successes/failures concurrently
        self._lock = threading.Lock()
        self._failures: deque[float] = deque()
        self._opened_at = 0.0
        self._probe_inflight = False
        self.rejections = 0
        self._set_gauge()

    # ------------------------------------------------------------------
    def _set_gauge(self) -> None:
        self.metrics.gauge_set("serve.breaker.state", _STATE_GAUGE[self.state])

    def _reject(self, reason: str, retry_after_s: float) -> Admission:
        self.rejections += 1
        self.metrics.inc("serve.breaker.rejections", reason=reason)
        return Admission(False, reason, round(max(retry_after_s, 0.1), 3))

    def _prune(self, now: float) -> None:
        horizon = now - WINDOW_S
        while self._failures and self._failures[0] < horizon:
            self._failures.popleft()

    # ------------------------------------------------------------------
    def admit(self, queue_depth: int) -> Admission:
        """Gate one submission given the current queue depth."""
        with self._lock:
            return self._admit_locked(queue_depth)

    def _admit_locked(self, queue_depth: int) -> Admission:
        now = self.clock()
        if self.state == "open":
            elapsed = now - self._opened_at
            if elapsed < COOLDOWN_S:
                return self._reject("open", COOLDOWN_S - elapsed)
            self.state = "half-open"
            self._probe_inflight = False
            self._set_gauge()
        if self.state == "half-open":
            if self._probe_inflight:
                return self._reject("half-open", COOLDOWN_S)
            self._probe_inflight = True
            return Admission(True, "probe")
        if queue_depth >= MAX_QUEUE_DEPTH:
            # back-pressure, not sickness: state stays closed
            return self._reject("saturated", COOLDOWN_S)
        return Admission(True)

    def record_success(self) -> None:
        """A job finished cleanly."""
        with self._lock:
            if self.state == "half-open":
                self.state = "closed"
                self._failures.clear()
                self._probe_inflight = False
                self._set_gauge()

    def record_failure(self) -> None:
        """A job failed, was degraded to partial, or poisoned a cell."""
        with self._lock:
            self._record_failure_locked()

    def _record_failure_locked(self) -> None:
        now = self.clock()
        if self.state == "half-open":
            # the probe failed: back to open, cooldown restarts
            self.state = "open"
            self._opened_at = now
            self._probe_inflight = False
            self._set_gauge()
            return
        self._failures.append(now)
        self._prune(now)
        if self.state == "closed" and len(self._failures) >= FAILURE_THRESHOLD:
            self.state = "open"
            self._opened_at = now
            self._set_gauge()

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        with self._lock:
            return self._to_dict_locked()

    def _to_dict_locked(self) -> dict:
        now = self.clock()
        self._prune(now)
        d = {
            "state": self.state,
            "recent_failures": len(self._failures),
            "rejections": self.rejections,
        }
        if self.state == "open":
            d["retry_after_s"] = round(
                max(COOLDOWN_S - (now - self._opened_at), 0.0), 3
            )
        return d
