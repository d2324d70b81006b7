"""A simulation leaves nothing for the cyclic collector (DESIGN.md,
"Memory model"): a process dies with its last step and a level's graph
dies at shutdown, both by reference count. Every test here runs with
the collector off, so whatever is gone went without it; "gone" is
checked as reachability — no live instance of the type is left in the
interpreter — which is the "every slot and timer came home, no live
waiter at quiescence" half of the run-end invariants, stated for
objects.
"""

import gc
import weakref

import pytest

import repro
from repro.core import api
from repro.experiments.chaos import default_plan
from repro.parsec.dtd import DataHandle, DtdRuntime, DtdTask
from repro.parsec.runtime import ParsecRuntime
from repro.parsec.ptg import RunningTask, TaskGraph
from repro.parsec.stealing import StealPolicy
from repro.sim.cluster import Cluster, ClusterConfig, DataMode
from repro.sim.engine import Engine, Process
from repro.sim.network import Message, _Transfer
from repro.sim.resources import Resource
from repro.util.errors import SimulationError

#: what a level materializes per task or per message
GRAPH_TYPES = (TaskGraph, RunningTask, DtdTask, DataHandle, Message)
RUNTIMES = ("legacy", "v5", "dtd")
N_NODES, CORES = 4, 2


pytestmark = pytest.mark.usefixtures("no_collector")


def live(*types) -> int:
    """Instances of ``types`` the interpreter still holds, reachable or not."""
    return sum(isinstance(obj, types) for obj in gc.get_objects())


def synth(**knobs) -> api.RunConfig:
    return api.RunConfig(
        n_nodes=N_NODES, cores_per_node=CORES, data_mode=DataMode.SYNTH, **knobs
    )


class _Payload:
    """A payload a weak reference can watch."""


class TestAProcessDiesWithItsLastStep:
    def test_a_transfer_is_freed_on_delivery(self):
        cluster = Cluster(ClusterConfig(n_nodes=2, cores_per_node=1))
        engine = cluster.engine
        freed_by_next_event = []

        def on_deliver(message):
            # the transfer is still delivering here; by the next event
            # nothing may hold it, its message or the payload it carried
            # (the transfer holds the message, the message the payload)
            engine.call_soon(
                lambda _: freed_by_next_event.append(
                    (payload() is None, live(_Transfer, Message))
                )
            )

        for dst in (1, 0):  # remote, then same-node
            sent = _Payload()
            payload = weakref.ref(sent)
            cluster.network.send(0, dst, 256.0, sent, on_deliver=on_deliver)
            del sent
            cluster.run()
        assert freed_by_next_event == [(True, 0), (True, 0)]

    def test_a_stale_resume_is_a_simulation_error(self):
        engine = Engine()

        def body():
            yield engine.timeout(1.0)

        process = engine.process(body())
        step = process._step_cb
        engine.run()
        assert process.triggered and process._step_cb is None
        with pytest.raises(SimulationError, match="after it finished"):
            step(None)

    def test_close_runs_the_finally_blocks_and_fails_the_process(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        progressed = []

        def holder():
            yield resource.acquire()
            yield engine.timeout(2.0)
            resource.release()

        def doomed():
            grant = resource.acquire()
            try:
                yield grant
                progressed.append("doomed")  # must never run
            finally:
                grant.abandon()

        def joiner():
            try:
                yield parked
            except SimulationError as exc:
                progressed.append(str(exc))

        engine.process(holder())
        parked = engine.process(doomed(), name="doomed")
        engine.run(until=1.0)
        grant = resource._waiters[0]
        generator = weakref.ref(parked._generator)
        parked.close()
        assert grant.abandoned  # doomed()'s finally ran
        assert generator() is None and parked.triggered and parked.failed
        parked.close()  # idempotent
        engine.process(joiner())
        engine.run()
        assert progressed == ["process 'doomed' was closed"]
        assert resource.in_use == 0

    def test_closing_a_process_something_will_still_resume_is_loud(self):
        """``close()`` is for a process whose waitable is abandoned; a
        live timer resuming the corpse must not pass silently."""
        engine = Engine()

        def body():
            yield engine.timeout(2.0)

        process = engine.process(body())
        engine.run(until=1.0)
        process.close()
        with pytest.raises(SimulationError, match="after it finished"):
            engine.run()


class TestALevelsGraphDiesAtShutdown:
    @staticmethod
    def run_and_drop(runtime, token, **knobs):
        """Run one cell; returns what ``gc.collect()`` finds once the
        result is dropped. Nothing the level materialized may outlive
        ``run`` even while the result is still held."""
        processes = live(Process)
        result = repro.run(token, runtime=runtime, config=synth(**knobs))
        assert result.n_tasks > 0
        assert live(*GRAPH_TYPES) == 0
        # no process is left parked: the GA handlers are FIFO servers
        assert live(Process) - processes == 0
        del result
        return gc.collect()

    @pytest.mark.parametrize("runtime", RUNTIMES)
    def test_what_is_left_is_the_cluster_skeleton(self, runtime):
        self.run_and_drop(runtime, "rbgs:8x8")  # one-off caches of a first run
        small = self.run_and_drop(runtime, "rbgs:8x8")
        large = self.run_and_drop(runtime, "rbgs:16x16")  # 4x the tasks
        assert 0 < large <= 1000
        assert abs(large - small) <= 0.05 * small, (small, large)

    @pytest.mark.parametrize("runtime", ["v5", "dtd"])
    def test_each_level_of_a_multi_level_run(self, runtime, monkeypatch):
        """``ccsd:tiny`` REAL: when a level starts, the previous level's
        graph is already gone — by reference count."""
        live_at_level_start = []
        for cls in (ParsecRuntime, DtdRuntime):

            def execute(self, *args, _execute=cls.execute, **kwargs):
                # a DTD skeleton is inserted by now, a PTG not yet
                # instantiated: what else is alive?
                own = self.n_tasks if isinstance(self, DtdRuntime) else 0
                live_at_level_start.append(live(TaskGraph, DtdTask) - own)
                return _execute(self, *args, **kwargs)

            monkeypatch.setattr(cls, "execute", execute)
        config = api.RunConfig(n_nodes=N_NODES, cores_per_node=CORES)
        workload = api.build("ccsd:tiny", config)
        result = repro.run(workload, runtime=runtime, config=config)
        assert len(live_at_level_start) == len(workload.levels()) > 1
        assert live_at_level_start == [0] * len(live_at_level_start)
        assert live(*GRAPH_TYPES) == 0 and result.n_tasks > 0

    def test_a_faulted_stealing_cell(self):
        """Crash, drops, delays, duplicates, retries and steals: the
        drain path abandons, shutdown closes, and the graph still goes."""
        config = synth(stealing=StealPolicy())
        horizon = repro.run("rbgs:16x16", runtime="v5", config=config).execution_time
        workload = api.build("rbgs:16x16", config)
        workload.cluster.install_faults(default_plan(11, horizon, N_NODES))
        result = repro.run(workload, runtime="v5", config=config)
        report = workload.cluster.faults.report
        assert report.nodes_crashed == 1 and report.retransmits > 0
        assert result.steal_requests > 0
        assert live(*GRAPH_TYPES) == 0
        del workload, result
        assert gc.collect() <= 1000
