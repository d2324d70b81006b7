"""Failure injection and robustness tests.

The simulation must fail loudly and diagnosably: a task body that
raises, a PTG whose dataflow stalls, a GA range that escapes its array,
or a corrupted metadata structure should each surface a clear error —
never a silent hang or wrong numbers.
"""

import numpy as np
import pytest

from repro import run
from repro.core.api import RunConfig, build
from repro.ga.runtime import GlobalArrays
from repro.legacy.runtime import LegacyRuntime
from repro.parsec.ptg import PTG
from repro.parsec.runtime import ParsecRuntime
from repro.parsec.taskclass import Dep, Flow, FlowMode, TaskClass
from repro.sim.cluster import Cluster, ClusterConfig, DataMode
from repro.sim.cost import OpCost
from repro.tce.reference import compute_reference
from repro.util.errors import DataflowError, GlobalArrayError, SimulationError
from types import SimpleNamespace


def make_cluster(**kwargs):
    defaults = dict(n_nodes=2, cores_per_node=2)
    defaults.update(kwargs)
    return Cluster(ClusterConfig(**defaults))


class TestTaskBodyFailures:
    def build_ptg(self, body):
        ptg = PTG("failing")
        ptg.add(
            TaskClass(
                name="T",
                params=("i",),
                domain=lambda md: [(i,) for i in range(3)],
                placement=lambda p, md: 0,
                run=body,
                flows=[Flow("C", FlowMode.WRITE, lambda p, md: 1)],
            )
        )
        return ptg

    def test_raising_body_surfaces_with_process_name(self):
        def body(ctx):
            yield ctx.charge(OpCost(0.1, 0.0))
            if ctx.params[0] == 1:
                raise RuntimeError("injected task failure")

        cluster = make_cluster()
        runtime = ParsecRuntime(cluster)
        with pytest.raises(SimulationError, match="parsec.worker") as exc_info:
            runtime.execute(self.build_ptg(body), SimpleNamespace())
        assert isinstance(exc_info.value.__cause__, RuntimeError)

    def test_body_forgetting_output_fails_at_consumer(self):
        """A producer that never sets its output delivers None; a REAL
        consumer that needs the data fails visibly."""
        md = SimpleNamespace()
        ptg = PTG("none-flow")

        def producer(ctx):
            yield ctx.charge(OpCost(0.0, 0.0))
            # forgot: ctx.outputs["C"] = ...

        def consumer(ctx):
            yield ctx.charge(OpCost(0.0, 0.0))
            assert ctx.inputs["C"] is None  # documented behaviour

        ptg.add(
            TaskClass(
                name="P",
                params=(),
                domain=lambda md: [()],
                placement=lambda p, md: 0,
                run=producer,
                flows=[
                    Flow(
                        "C",
                        FlowMode.WRITE,
                        lambda p, md: 1,
                        outputs=[Dep("C2", lambda p, md: (), "C")],
                    )
                ],
            )
        )
        ptg.add(
            TaskClass(
                name="C2",
                params=(),
                domain=lambda md: [()],
                placement=lambda p, md: 0,
                run=consumer,
                flows=[Flow("C", FlowMode.READ, lambda p, md: 1)],
            )
        )
        result = ParsecRuntime(make_cluster()).execute(ptg, md)
        assert result.n_tasks == 2


class TestStallDetection:
    def test_unvalidated_stalling_graph_raises_with_stuck_tasks(self):
        """A row fed only by itself waits forever (validation checks
        arrows, not cycles); execute() must diagnose the stall, naming
        the flow it waits on, rather than return silently."""
        md = SimpleNamespace()
        ptg = PTG("stall")
        ptg.add(
            TaskClass(
                name="WAITER",
                params=(),
                domain=lambda md: [()],
                placement=lambda p, md: 0,
                run=lambda ctx: iter(()),
                flows=[
                    Flow(
                        "C",
                        FlowMode.RW,
                        lambda p, md: 1,
                        outputs=[Dep("WAITER", lambda p, md: (), "C")],
                    )
                ],
            )
        )
        runtime = ParsecRuntime(make_cluster())
        with pytest.raises(DataflowError, match="stalled") as stalled:
            runtime.execute(ptg, md, validate=False)
        assert "stuck: WAITER() @node0: waiting on C(0/1)" in str(stalled.value)

    def test_validation_catches_it_up_front(self):
        """An arrow onto a task that does not exist is refused before any
        task runs, not found as a stall or a failed delivery mid-run."""
        ran = []

        def body(ctx):
            ran.append(ctx)
            return iter(())

        md = SimpleNamespace()
        ptg = PTG("stall2")
        ptg.add(
            TaskClass(
                name="WAITER",
                params=(),
                domain=lambda md: [()],
                placement=lambda p, md: 0,
                run=body,
                flows=[
                    Flow(
                        "C",
                        FlowMode.RW,
                        lambda p, md: 1,
                        outputs=[Dep("GHOST", lambda p, md: (), "C")],
                    )
                ],
            )
        )
        with pytest.raises(DataflowError, match=r"targets missing task GHOST\(\)"):
            ParsecRuntime(make_cluster()).execute(ptg, md)
        assert ran == []


class TestGaRobustness:
    def test_fetch_out_of_bounds(self):
        cluster = make_cluster()
        ga = GlobalArrays(cluster)
        array = ga.create("t", 10)
        with pytest.raises(GlobalArrayError):
            # range validation happens at segment computation, eagerly
            list(ga.fetch(0, array, 5, 20))

    def test_direct_ops_out_of_bounds(self):
        cluster = make_cluster(data_mode=DataMode.REAL)
        ga = GlobalArrays(cluster)
        array = ga.create("t", 10)
        with pytest.raises(GlobalArrayError):
            array.read_range_direct(-1, 5)
        with pytest.raises(GlobalArrayError):
            array.accumulate_range_direct(5, 20, np.zeros(15))

    def test_destroyed_array_rejected_mid_program(self):
        # arrays are never destroyed, so a fetch mid-program always
        # finds its array
        cluster = make_cluster(data_mode=DataMode.REAL)
        ga = GlobalArrays(cluster)
        array = ga.create("t", 10)
        with pytest.raises(AttributeError):
            array.destroy()
        got = []

        def reader():
            got.append((yield from ga.fetch(0, array, 0, 5)))

        cluster.engine.process(reader())
        cluster.run()
        assert np.array_equal(got[0], np.zeros(5))


class TestRepeatability:
    def test_running_the_subroutine_twice_doubles_i2(self):
        """Accumulation linearity: the machinery is re-runnable and the
        GA accumulate semantics are exact."""
        workload = build("t2_7:tiny", RunConfig(n_nodes=4, cores_per_node=2))
        expected = compute_reference(workload)
        LegacyRuntime(workload.cluster, workload.ga).execute_subroutine(
            workload.subroutine
        )
        run(workload, "v5")
        np.testing.assert_allclose(
            workload.i2.flat_values(), 2.0 * expected, rtol=1e-12, atol=1e-12
        )

    def test_three_parsec_sections_on_one_cluster(self):
        """Repeated PaRSEC launches must not interfere (distinct comm
        inboxes, fresh schedulers)."""
        workload = build("t2_7:tiny", RunConfig(n_nodes=4, cores_per_node=2))
        expected = compute_reference(workload)
        for _ in range(3):
            run(workload, "v5")
        np.testing.assert_allclose(
            workload.i2.flat_values(), 3.0 * expected, rtol=1e-12, atol=1e-12
        )
