"""The circuit breaker state machine, driven by a fake clock."""

import pytest

from repro.obs.registry import MetricsRegistry
from repro.serve.breaker import (
    COOLDOWN_S,
    FAILURE_THRESHOLD,
    MAX_QUEUE_DEPTH,
    WINDOW_S,
    CircuitBreaker,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def _breaker(metrics=None):
    clock = FakeClock()
    return CircuitBreaker(clock=clock, metrics=metrics), clock


def _trip(breaker):
    """Fail ``FAILURE_THRESHOLD`` jobs at one instant: the breaker opens."""
    for _ in range(FAILURE_THRESHOLD):
        breaker.record_failure()
    assert breaker.state == "open"


class TestClosed:
    def test_admits_under_capacity(self):
        breaker, _ = _breaker()
        admission = breaker.admit(queue_depth=0)
        assert admission.allowed and admission.retry_after_s is None

    def test_sheds_on_saturation_without_tripping(self):
        breaker, _ = _breaker()
        admission = breaker.admit(queue_depth=MAX_QUEUE_DEPTH)
        assert not admission.allowed
        assert admission.reason == "saturated"
        assert admission.retry_after_s > 0
        assert breaker.state == "closed"  # back-pressure, not sickness
        assert breaker.admit(queue_depth=MAX_QUEUE_DEPTH - 1).allowed

    def test_trips_at_failure_threshold(self):
        breaker, _ = _breaker()
        for _ in range(FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"

    def test_old_failures_age_out_of_the_window(self):
        breaker, clock = _breaker()
        for _ in range(FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        clock.now += WINDOW_S + 1.0  # all fall out of the window
        breaker.record_failure()
        assert breaker.state == "closed"


class TestOpen:
    def test_rejects_with_retry_after(self):
        breaker, clock = _breaker()
        _trip(breaker)
        clock.now += 2.0
        admission = breaker.admit(queue_depth=0)
        assert not admission.allowed
        assert admission.reason == "open"
        assert admission.retry_after_s == pytest.approx(COOLDOWN_S - 2.0)

    def test_half_opens_after_cooldown(self):
        breaker, clock = _breaker()
        _trip(breaker)
        clock.now += COOLDOWN_S
        admission = breaker.admit(queue_depth=0)
        assert admission.allowed and admission.reason == "probe"
        assert breaker.state == "half-open"


class TestHalfOpen:
    def _half_open(self):
        breaker, clock = _breaker()
        _trip(breaker)
        clock.now += COOLDOWN_S
        assert breaker.admit(queue_depth=0).allowed  # the probe
        return breaker, clock

    def test_only_one_probe_admitted(self):
        breaker, _ = self._half_open()
        assert not breaker.admit(queue_depth=0).allowed

    def test_probe_success_closes_and_clears(self):
        breaker, _ = self._half_open()
        breaker.record_success()
        assert breaker.state == "closed"
        # the window was cleared: one failure short of the threshold
        # does not trip again
        for _ in range(FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        assert breaker.state == "closed"

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker, clock = self._half_open()
        breaker.record_failure()
        assert breaker.state == "open"
        clock.now += COOLDOWN_S - 0.1
        assert not breaker.admit(queue_depth=0).allowed
        clock.now += 0.2
        assert breaker.admit(queue_depth=0).allowed


class TestObservability:
    def test_to_dict_reports_state_and_hint(self):
        breaker, clock = _breaker()
        assert breaker.to_dict()["state"] == "closed"
        _trip(breaker)
        clock.now += 1.0
        d = breaker.to_dict()
        assert d["state"] == "open"
        assert d["retry_after_s"] == pytest.approx(COOLDOWN_S - 1.0)
        assert d["rejections"] == 0

    def test_metrics_gauge_and_rejection_counters(self):
        metrics = MetricsRegistry(enabled=True)
        breaker, _ = _breaker(metrics)
        assert metrics.gauge_value("serve.breaker.state") == 0.0
        _trip(breaker)
        assert metrics.gauge_value("serve.breaker.state") == 2.0
        breaker.admit(queue_depth=0)
        assert metrics.counter_value(
            "serve.breaker.rejections", reason="open"
        ) == 1.0
