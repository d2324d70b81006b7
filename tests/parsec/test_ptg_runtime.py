"""Unit tests for the generic PTG runtime.

Builds small PTGs by hand — including the paper's Figure 1 example (a
GEMM chain fed by DFILL, drained by SORT) and its Figure 2 variation
(parallel GEMMs into a reduction) — and checks instantiation,
validation, scheduling order, priorities, and remote dataflow.
"""

from types import SimpleNamespace

import pytest

from repro.parsec.ptg import DONE, PTG
from repro.parsec.runtime import ParsecRuntime
from repro.parsec.taskclass import Dep, Flow, FlowMode, TaskClass
from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.cost import OpCost
from repro.sim.trace import TaskCategory
from repro.util.errors import DataflowError, SimulationError, StallError


def make_cluster(n_nodes=2, cores=2, **overrides):
    from repro.sim.cost import MachineModel

    machine = MachineModel(**overrides) if overrides else MachineModel()
    return Cluster(ClusterConfig(n_nodes=n_nodes, cores_per_node=cores, machine=machine))


def simple_run(duration=0.0, record=None, value=None):
    """A body that burns ``duration`` cpu and forwards a value on flow C."""

    def run(ctx):
        yield ctx.charge(OpCost(duration, 0.0))
        if record is not None:
            record.append((ctx.task.label, ctx.cluster.engine.now))
        prev = ctx.inputs.get("C")
        ctx.outputs["C"] = (prev or 0) + 1 if value is None else value

    return run


def unit_size(params, md):
    return 1


class TestFigure1Chain:
    """The PTG of the paper's Figure 1: DFILL -> GEMM chain -> SORT."""

    def build(self, record, n_chains=2, chain_len=3, n_nodes=2):
        md = SimpleNamespace(n_chains=n_chains, chain_len=chain_len)
        ptg = PTG("fig1")
        ptg.add(
            TaskClass(
                name="DFILL",
                params=("L1",),
                domain=lambda md: [(L1,) for L1 in range(md.n_chains)],
                placement=lambda p, md: p[0] % n_nodes,
                run=simple_run(0.5, record, value=0),
                category=TaskCategory.DFILL,
                flows=[
                    Flow(
                        "C",
                        FlowMode.WRITE,
                        unit_size,
                        outputs=[
                            Dep("GEMM", lambda p, md: (p[0], 0), "C"),
                        ],
                    )
                ],
            )
        )
        ptg.add(
            TaskClass(
                name="GEMM",
                params=("L1", "L2"),
                domain=lambda md: [
                    (L1, L2)
                    for L1 in range(md.n_chains)
                    for L2 in range(md.chain_len)
                ],
                placement=lambda p, md: p[0] % n_nodes,
                run=simple_run(1.0, record),
                category=TaskCategory.GEMM,
                flows=[
                    Flow(
                        "C",
                        FlowMode.RW,
                        unit_size,
                        outputs=[
                            Dep(
                                "GEMM",
                                lambda p, md: (p[0], p[1] + 1),
                                "C",
                                guard=lambda p, md: p[1] < md.chain_len - 1,
                            ),
                            Dep(
                                "SORT",
                                lambda p, md: (p[0],),
                                "C",
                                guard=lambda p, md: p[1] == md.chain_len - 1,
                            ),
                        ],
                    )
                ],
            )
        )
        ptg.add(
            TaskClass(
                name="SORT",
                params=("L1",),
                domain=lambda md: [(L1,) for L1 in range(md.n_chains)],
                placement=lambda p, md: p[0] % n_nodes,
                run=simple_run(0.25, record),
                category=TaskCategory.SORT,
                flows=[Flow("C", FlowMode.READ, unit_size)],
            )
        )
        return ptg, md

    def test_instantiation_counts(self):
        ptg, md = self.build([])
        graph = ptg.instantiate(md, n_nodes=2)
        assert len(graph) == 2 + 6 + 2
        assert {graph.label(row) for row in graph.initially_ready()} == {
            "DFILL(0,)",
            "DFILL(1,)",
        }

    def test_sorted_rows_follow_the_keys(self):
        """A class's rows are numbered in params order, also for a domain
        that yields its params out of order, so the sorted-key order is
        the classes' row ranges by name."""
        ptg, md = self.build([], n_chains=3, chain_len=2)
        gemm = ptg.classes["GEMM"]
        domain = gemm.domain
        gemm.domain = lambda md: list(reversed(domain(md)))
        template = ptg.instantiate(md, n_nodes=2).template
        keys = [template.key(row) for row in range(len(template))]
        assert [key[0] for key in keys] == ["DFILL"] * 3 + ["GEMM"] * 6 + ["SORT"] * 3
        assert keys[3:9] == sorted(keys[3:9])
        assert [keys[row] for row in template.sorted_rows] == sorted(keys)

    def test_chain_executes_in_order(self):
        record = []
        ptg, md = self.build(record, n_chains=1, chain_len=4, n_nodes=1)
        cluster = make_cluster(n_nodes=1, cores=4)
        result = ParsecRuntime(cluster).execute(ptg, md)
        labels = [label for label, _ in record]
        assert labels == [
            "DFILL(0,)",
            "GEMM(0, 0)",
            "GEMM(0, 1)",
            "GEMM(0, 2)",
            "GEMM(0, 3)",
            "SORT(0,)",
        ]
        assert result.n_tasks == 6

    def test_rw_flow_carries_accumulated_value(self):
        """The RW C flow threads one value through the whole chain."""
        seen = {}

        def sort_run(ctx):
            seen["value"] = ctx.inputs["C"]
            yield ctx.charge(OpCost(0.0, 0.0))

        record = []
        ptg, md = self.build(record, n_chains=1, chain_len=5, n_nodes=1)
        ptg.classes["SORT"].run = sort_run
        cluster = make_cluster(n_nodes=1)
        ParsecRuntime(cluster).execute(ptg, md)
        assert seen["value"] == 5  # DFILL seeds 0, each GEMM +1

    def test_independent_chains_run_in_parallel(self):
        record = []
        ptg, md = self.build(record, n_chains=4, chain_len=3, n_nodes=1)
        cluster = make_cluster(n_nodes=1, cores=4)
        result = ParsecRuntime(cluster).execute(ptg, md)
        # 4 chains, each serially 0.5 + 3*1 + 0.25 = 3.75 plus small
        # per-task overheads: with 4 cores they all overlap
        assert result.execution_time < 2 * 3.75

    def test_trace_spans_recorded_per_category(self):
        record = []
        ptg, md = self.build(record)
        cluster = make_cluster()
        ParsecRuntime(cluster).execute(ptg, md)
        counts = cluster.trace.count_by_category()
        assert counts[TaskCategory.DFILL] == 2
        assert counts[TaskCategory.GEMM] == 6
        assert counts[TaskCategory.SORT] == 2


class TestFigure2ParallelReduction:
    """Parallel GEMMs feeding a reduction, as in the paper's Figure 2."""

    def build(self, n_gemms=4):
        md = SimpleNamespace(n_gemms=n_gemms)
        ptg = PTG("fig2")
        ptg.add(
            TaskClass(
                name="GEMM",
                params=("L2",),
                domain=lambda md: [(i,) for i in range(md.n_gemms)],
                placement=lambda p, md: 0,
                run=simple_run(1.0, None, value=1),
                category=TaskCategory.GEMM,
                flows=[
                    Flow(
                        "C",
                        FlowMode.WRITE,
                        unit_size,
                        outputs=[Dep("RED", lambda p, md: (), "X")],
                    )
                ],
            )
        )

        def red_run(ctx):
            yield ctx.charge(OpCost(0.1, 0.0))
            ctx.outputs["X"] = sum(
                ctx.inputs["X"] if isinstance(ctx.inputs["X"], list) else [ctx.inputs["X"]]
            )

        ptg.add(
            TaskClass(
                name="RED",
                params=(),
                domain=lambda md: [()],
                placement=lambda p, md: 0,
                run=red_run,
                category=TaskCategory.REDUCE,
                flows=[Flow("X", FlowMode.RW, unit_size)],
            )
        )
        return ptg, md

    def test_reduction_waits_for_all_inputs_and_sums(self):
        ptg, md = self.build(n_gemms=4)
        cluster = make_cluster(n_nodes=1, cores=4)
        runtime = ParsecRuntime(cluster)
        result = runtime.execute(ptg, md)
        red = runtime.graph.row("RED", ())
        assert runtime.graph.flags[red] & DONE
        assert result.n_tasks == 5

    def test_parallel_gemms_finish_simultaneously(self):
        ptg, md = self.build(n_gemms=4)
        cluster = make_cluster(n_nodes=1, cores=4)
        result = ParsecRuntime(cluster).execute(ptg, md)
        # all four GEMMs run concurrently -> ~1s + reduction, not ~4s
        assert result.execution_time < 2.0


class TestRemoteDataflow:
    def build(self, size_elems=1000):
        md = SimpleNamespace()
        ptg = PTG("remote")
        ptg.add(
            TaskClass(
                name="PROD",
                params=(),
                domain=lambda md: [()],
                placement=lambda p, md: 0,
                run=simple_run(0.0, None, value=42),
                flows=[
                    Flow(
                        "C",
                        FlowMode.WRITE,
                        lambda p, md: size_elems,
                        outputs=[Dep("CONS", lambda p, md: (), "C")],
                    )
                ],
            )
        )
        got = {}

        def cons_run(ctx):
            got["value"] = ctx.inputs["C"]
            got["time"] = ctx.cluster.engine.now
            yield ctx.charge(OpCost(0.0, 0.0))

        ptg.add(
            TaskClass(
                name="CONS",
                params=(),
                domain=lambda md: [()],
                placement=lambda p, md: 1,
                run=cons_run,
                flows=[Flow("C", FlowMode.READ, lambda p, md: size_elems)],
            )
        )
        return ptg, md, got

    def test_cross_node_transfer_delivers_data_and_costs_time(self):
        ptg, md, got = self.build(size_elems=10**6)
        cluster = make_cluster(n_nodes=2)
        result = ParsecRuntime(cluster).execute(ptg, md)
        assert got["value"] == 42
        assert result.messages_remote == 1
        assert result.bytes_remote == 8.0 * 10**6
        # 8MB over the simulated NIC takes macroscopic virtual time
        assert got["time"] > cluster.machine.wire_time(8.0 * 10**6)

    def test_local_delivery_is_free_of_transport(self):
        ptg, md, got = self.build()
        # place consumer on node 0 too
        ptg.classes["CONS"].placement = lambda p, md: 0
        cluster = make_cluster(n_nodes=2)
        result = ParsecRuntime(cluster).execute(ptg, md)
        assert result.messages_remote == 0
        assert got["value"] == 42


class TestPriorities:
    def test_higher_priority_pops_first_on_saturated_core(self):
        order = []
        md = SimpleNamespace()

        def body(ctx):
            order.append(ctx.task.params[0])
            yield ctx.charge(OpCost(0.1, 0.0))

        ptg = PTG("prio")
        ptg.add(
            TaskClass(
                name="T",
                params=("i",),
                domain=lambda md: [(i,) for i in range(6)],
                placement=lambda p, md: 0,
                run=body,
                priority=lambda p, md: p[0],  # later tasks more important
                flows=[Flow("C", FlowMode.WRITE, unit_size)],
            )
        )
        cluster = make_cluster(n_nodes=1, cores=1)
        ParsecRuntime(cluster).execute(ptg, md)
        # the first pop can race the seeding order, but the rest must be
        # in strictly decreasing priority
        assert order[1:] == sorted(order[1:], reverse=True)

    def test_no_priority_is_fifo(self):
        order = []
        md = SimpleNamespace()

        def body(ctx):
            order.append(ctx.task.params[0])
            yield ctx.charge(OpCost(0.1, 0.0))

        ptg = PTG("fifo")
        ptg.add(
            TaskClass(
                name="T",
                params=("i",),
                domain=lambda md: [(i,) for i in range(6)],
                placement=lambda p, md: 0,
                run=body,
                flows=[Flow("C", FlowMode.WRITE, unit_size)],
            )
        )
        cluster = make_cluster(n_nodes=1, cores=1)
        ParsecRuntime(cluster).execute(ptg, md)
        assert order == [0, 1, 2, 3, 4, 5]


class TestValidation:
    def test_missing_consumer_rejected(self):
        md = SimpleNamespace()
        ptg = PTG("bad")
        ptg.add(
            TaskClass(
                name="A",
                params=(),
                domain=lambda md: [()],
                placement=lambda p, md: 0,
                run=simple_run(),
                flows=[
                    Flow(
                        "C",
                        FlowMode.WRITE,
                        unit_size,
                        outputs=[Dep("GHOST", lambda p, md: (), "C")],
                    )
                ],
            )
        )
        with pytest.raises(DataflowError, match="missing"):
            ptg.instantiate(md, n_nodes=1)
        # unvalidated, the producer reports it when it completes
        runtime = ParsecRuntime(make_cluster(n_nodes=1))
        with pytest.raises(SimulationError) as raised:
            runtime.execute(ptg, md, validate=False)
        cause = raised.value.__cause__
        assert isinstance(cause, DataflowError)
        assert str(cause) == "A().C -> missing ('GHOST', ())"

    def test_unfed_input_rejected(self):
        """An input can only be fed by an arrow its producer spells, so
        the old unfed input B() <- B(99,) is now an arrow from B() onto
        B(99,), an instance of a known class that is not in its domain:
        refused when the template is built."""
        md = SimpleNamespace()
        ptg = PTG("starved")
        ptg.add(
            TaskClass(
                name="B",
                params=("i",),
                domain=lambda md: [(0,)],
                placement=lambda p, md: 0,
                run=simple_run(),
                flows=[
                    Flow(
                        "C",
                        FlowMode.RW,
                        unit_size,
                        outputs=[Dep("B", lambda p, md: (99,), "C")],
                    )
                ],
            )
        )
        with pytest.raises(
            DataflowError, match=r"B\(0,\)\.C targets missing task B\(99,\)"
        ):
            ptg.instantiate(md, n_nodes=1)

    def test_arrow_onto_a_missing_flow_rejected(self):
        """An arrow onto a flow its consumer's class does not have is
        refused when the template is built, not delivered mid-run."""
        md = SimpleNamespace()
        ptg = PTG("no-flow")
        ptg.add(
            TaskClass(
                name="A",
                params=(),
                domain=lambda md: [()],
                placement=lambda p, md: 0,
                run=simple_run(),
                flows=[
                    Flow(
                        "C",
                        FlowMode.WRITE,
                        unit_size,
                        outputs=[Dep("B", lambda p, md: (), "Z")],
                    )
                ],
            )
        )
        ptg.add(
            TaskClass(
                name="B",
                params=(),
                domain=lambda md: [()],
                placement=lambda p, md: 0,
                run=simple_run(),
                flows=[Flow("C", FlowMode.READ, unit_size)],
            )
        )
        with pytest.raises(DataflowError, match=r"A\.C -> B\.Z: B has no flow 'Z'"):
            ptg.template(md, n_nodes=1)

    def test_non_finite_priority_rejected(self):
        """A NaN priority would misrank every other task in the priority
        table; the template refuses it and names the task."""
        md = SimpleNamespace()
        ptg = PTG("nan")
        ptg.add(
            TaskClass(
                name="T",
                params=("i",),
                domain=lambda md: [(i,) for i in range(13)],
                placement=lambda p, md: 0,
                run=simple_run(),
                priority=lambda p, md: float("nan") if p[0] == 3 else 13 * p[0] % 7,
                flows=[],
            )
        )
        with pytest.raises(DataflowError, match=r"T\(3,\) has non-finite priority nan"):
            ptg.template(md, n_nodes=1)

    def test_duplicate_class_rejected(self):
        ptg = PTG("dup")
        cls = TaskClass(
            name="A",
            params=(),
            domain=lambda md: [()],
            placement=lambda p, md: 0,
            run=simple_run(),
            flows=[],
        )
        ptg.add(cls)
        with pytest.raises(DataflowError):
            ptg.add(cls)

    def test_invalid_placement_rejected(self):
        md = SimpleNamespace()
        ptg = PTG("place")
        ptg.add(
            TaskClass(
                name="A",
                params=(),
                domain=lambda md: [()],
                placement=lambda p, md: 7,
                run=simple_run(),
                flows=[],
            )
        )
        with pytest.raises(DataflowError, match="invalid node"):
            ptg.instantiate(md, n_nodes=2)

    def test_launch_twice_rejected(self):
        md = SimpleNamespace()
        ptg = PTG("twice")
        ptg.add(
            TaskClass(
                name="A",
                params=(),
                domain=lambda md: [()],
                placement=lambda p, md: 0,
                run=simple_run(),
                flows=[],
            )
        )
        cluster = make_cluster(n_nodes=1)
        runtime = ParsecRuntime(cluster)
        runtime.launch(ptg, md)
        with pytest.raises(DataflowError):
            runtime.launch(ptg, md)

    def test_empty_graph_completes_immediately(self):
        md = SimpleNamespace()
        ptg = PTG("empty")
        ptg.add(
            TaskClass(
                name="A",
                params=(),
                domain=lambda md: [],
                placement=lambda p, md: 0,
                run=simple_run(),
                flows=[],
            )
        )
        cluster = make_cluster(n_nodes=1)
        result = ParsecRuntime(cluster).execute(ptg, md)
        assert result.n_tasks == 0


class TestExactlyOnce:
    """A row completes once, and a level ends with no row holding a
    payload — both checked by construction, not by a setting."""

    def build(self, self_fed=False):
        """PROD -> CONS; with ``self_fed`` CONS also waits on its own S,
        which only it could produce."""
        md = SimpleNamespace()
        ptg = PTG("once")
        ptg.add(
            TaskClass(
                name="PROD",
                params=(),
                domain=lambda md: [()],
                placement=lambda p, md: 0,
                run=simple_run(0.0, None, value=42),
                flows=[
                    Flow(
                        "C",
                        FlowMode.WRITE,
                        unit_size,
                        outputs=[Dep("CONS", lambda p, md: (), "C")],
                    )
                ],
            )
        )
        flows = [Flow("C", FlowMode.READ, unit_size)]
        if self_fed:
            flows.append(
                Flow(
                    "S",
                    FlowMode.RW,
                    unit_size,
                    outputs=[Dep("CONS", lambda p, md: (), "S")],
                )
            )
        ptg.add(
            TaskClass(
                name="CONS",
                params=(),
                domain=lambda md: [()],
                placement=lambda p, md: 0,
                run=simple_run(0.0),
                flows=flows,
            )
        )
        return ptg, md

    def test_completing_a_done_row_raises(self):
        ptg, md = self.build()
        graph = ptg.instantiate(md, n_nodes=1)
        prod = graph.row("PROD", ())
        assert graph.complete(prod) is None  # PROD received nothing
        with pytest.raises(DataflowError, match="completed twice"):
            graph.complete(prod)

    def test_completion_drops_the_rows_payloads(self):
        ptg, md = self.build()
        graph = ptg.instantiate(md, n_nodes=1)
        cons = graph.row("CONS", ())
        assert graph.receive(cons, "C", 42, tag=("PROD", ()))
        assert graph.complete(cons) == {"C": 42}
        assert graph.payloads == {} and graph.tags == {}

    def test_shutdown_with_a_row_holding_payloads_raises(self):
        ptg, md = self.build(self_fed=True)
        cluster = make_cluster(n_nodes=1)
        runtime = ParsecRuntime(cluster)
        with pytest.raises(StallError, match="stalled") as stalled:
            runtime.execute(ptg, md)
        # CONS got PROD's payload and waits for its own forever: the
        # stalled level is shut down, and that row is the stall's cause
        assert "stuck: CONS() @node0: waiting on S(0/1)" in str(stalled.value)
        held = stalled.value.__cause__
        assert isinstance(held, DataflowError)
        assert "holding payloads: CONS()" in str(held)
        node = cluster.nodes[0]
        assert runtime.comms[0].inbox_name not in node._mailboxes
        assert runtime.comms[0].runtime is None
        assert runtime.md is None
