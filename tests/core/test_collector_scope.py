"""``api.build`` and ``api.run`` hold the cyclic collector off
(``repro.util.collector.paused``): first thread in disables, last one
out restores what it found, every thread's outermost exit pays the one
collection that is due, and no error path leaves the switch in the wrong
position.
"""

import gc
import threading

import pytest

import repro
from repro.core import api
from repro.legacy.runtime import LegacyRuntime
from repro.sim.cluster import DataMode
from repro.util import collector
from repro.util.errors import ConfigurationError, StallError

CONFIG = api.RunConfig(n_nodes=4, cores_per_node=2, data_mode=DataMode.SYNTH)


class RecordingGc:
    """Stands in for the ``gc`` module inside ``collector``."""

    def __init__(self, enabled=True, counts=(0, 0, 0)):
        self.enabled = enabled
        self.counts = counts
        self.calls = []

    def get_count(self):
        return self.counts

    def get_threshold(self):
        return (700, 10, 10)

    def isenabled(self):
        return self.enabled

    def disable(self):
        self.calls.append("disable")
        self.enabled = False

    def enable(self):
        self.calls.append("enable")
        self.enabled = True

    def collect(self, generation=2):
        self.calls.append(("collect", generation, threading.current_thread().name))
        return 0


@pytest.fixture
def seen_inside(monkeypatch):
    """``gc.isenabled()`` as each ``LegacyRuntime.execute`` call finds it."""
    seen = []

    def execute(self, levels, _execute=LegacyRuntime.execute):
        seen.append(gc.isenabled())
        return _execute(self, levels)

    monkeypatch.setattr(LegacyRuntime, "execute", execute)
    return seen


@pytest.fixture
def stalling_chains(monkeypatch):
    def park_forever(cluster, ga, node, thread, chain, on_commit=None):
        yield cluster.engine.event()

    monkeypatch.setattr("repro.legacy.runtime.execute_chain", park_forever)


class TestTheSwitchIsRestored:
    def test_after_a_run(self, seen_inside):
        assert gc.isenabled()
        assert repro.run("rbgs:8x8", runtime="legacy", config=CONFIG).n_tasks > 0
        assert seen_inside == [False]
        assert gc.isenabled()

    def test_after_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            repro.run("rbgs:8x8", runtime="no-such-runtime", config=CONFIG)
        with pytest.raises(ConfigurationError):
            api.build("no-such-workload:tiny", CONFIG)
        assert gc.isenabled()

    def test_after_a_stall(self, stalling_chains, seen_inside):
        with pytest.raises(StallError):
            repro.run("t2_7:tiny", runtime="legacy", config=CONFIG)
        assert seen_inside == [False]
        assert gc.isenabled()

    def test_a_collector_the_caller_disabled_stays_disabled(self, stalling_chains):
        gc.disable()
        try:
            api.build("rbgs:8x8", CONFIG)
            assert not gc.isenabled()
            with pytest.raises(StallError):
                repro.run("t2_7:tiny", runtime="legacy", config=CONFIG)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_and_gets_no_collection_from_the_scope(self, monkeypatch):
        fake = RecordingGc(enabled=False)
        monkeypatch.setattr(collector, "gc", fake)
        repro.run("rbgs:8x8", runtime="legacy", config=CONFIG)
        assert fake.calls == ["disable"] and not fake.enabled


class TestOneScopePerThread:
    def test_build_inside_run_enters_once(self, monkeypatch):
        fake = RecordingGc()
        monkeypatch.setattr(collector, "gc", fake)
        repro.run("rbgs:8x8", runtime="legacy", config=CONFIG)  # builds inside
        assert fake.calls == ["disable", ("collect", 0, "MainThread"), "enable"]

    @pytest.mark.parametrize(
        "counts, generation",
        [((5000, 10, 10), 0), ((5000, 11, 3), 1), ((5000, 4, 11), 2)],
    )
    def test_the_exit_step_is_the_collection_that_is_due(
        self, monkeypatch, counts, generation
    ):
        """The interpreter's own thresholds pick the generation: an
        older one only when its count is over — explicit collections
        advance those counts like automatic ones do."""
        fake = RecordingGc(counts=counts)
        monkeypatch.setattr(collector, "gc", fake)
        with collector.paused():
            pass
        step = ("collect", generation, "MainThread")
        assert fake.calls == ["disable", step, "enable"]

    def test_overlapping_runs_of_two_threads(self, monkeypatch):
        """The serve shape: the second thread enters while the first is
        inside, so only the last one out may switch the collector back
        on — and each pays its own exit step."""
        fake = RecordingGc()
        monkeypatch.setattr(collector, "gc", fake)
        both_inside = threading.Barrier(2, timeout=60)
        results = []

        def execute(self, levels, _execute=LegacyRuntime.execute):
            both_inside.wait()
            assert not fake.enabled
            return _execute(self, levels)

        monkeypatch.setattr(LegacyRuntime, "execute", execute)

        def job():
            results.append(repro.run("rbgs:8x8", runtime="legacy", config=CONFIG))

        threads = [threading.Thread(target=job, name=f"job{i}") for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert len(results) == 2
        assert fake.enabled
        assert fake.calls.count("disable") == fake.calls.count("enable") == 1
        steps = [call for call in fake.calls if call[0] == "collect"]
        assert sorted(steps) == [("collect", 0, "job0"), ("collect", 0, "job1")]
        assert fake.calls[-1] == "enable"  # the last one out, after its step


class TestNothingCollectsDuringARun:
    def test_the_exit_step_is_the_only_collection(self):
        collections = []

        def on_collection(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        gc.collect()  # no older generation is due: the exit step is young
        full_before = gc.get_stats()[2]["collections"]
        gc.callbacks.append(on_collection)
        try:
            result = repro.run(
                "rbgs:16x16",
                runtime="v5",
                config=api.RunConfig(
                    n_nodes=16, cores_per_node=4, data_mode=DataMode.SYNTH
                ),
            )
        finally:
            gc.callbacks.remove(on_collection)
        assert result.n_tasks > 1000
        assert collections == [0]
        assert gc.get_stats()[2]["collections"] == full_before
