"""The task runtimes' memory model (DESIGN.md, "Memory model").

A payload lives from its producer's completion to its last consumer's;
a runtime lives for one level. Both rules are unconditional, so the
tests here run the ordinary entry points — there is nothing to turn on.
"""

import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.core import api
from repro.core.inspector import InspectionCache
from repro.experiments.chaos import default_plan, run_chaos
from repro.ga.runtime import GlobalArrays
from repro.parsec.dtd import AccessMode, DtdKind, DtdRuntime
from repro.parsec.ptg import DONE, PTG
from repro.parsec.runtime import ParsecRuntime
from repro.parsec.stealing import StealPolicy
from repro.parsec.taskclass import Dep, Flow, FlowMode, TaskClass
from repro.sim.cluster import Cluster, ClusterConfig, DataMode
from repro.sim.cost import OpCost
from repro.sim.faults import FaultPlan, Straggler
from tests.data import memory_peaks


def make_cluster(n_nodes=1, cores=2):
    return Cluster(ClusterConfig(n_nodes=n_nodes, cores_per_node=cores))


def unit_size(params, md):
    return 1


class TestPtgPayloadLifetime:
    """PROD -> CONS(0), CONS(1), beside a long chain of unrelated tasks."""

    TAIL_LEN = 6

    def build(self, freed, consumed):
        ptg = PTG("lifetime")

        def prod(ctx):
            yield ctx.charge(OpCost(1.0, 0.0))
            block = np.ones(1024)
            now = lambda: ctx.cluster.engine.now  # noqa: E731
            weakref.finalize(block, lambda: freed.append(now()))
            ctx.outputs["X"] = block

        def cons(ctx):
            # the two consumers finish at different times
            yield ctx.charge(OpCost(1.0 + ctx.params[0], 0.0))
            assert ctx.inputs["X"].sum() == 1024
            consumed.append(ctx.cluster.engine.now)

        def tail(ctx):
            yield ctx.charge(OpCost(2.0, 0.0))
            ctx.outputs["T"] = None

        ptg.add(
            TaskClass(
                name="PROD",
                params=("i",),
                domain=lambda md: [(0,)],
                placement=lambda p, md: 0,
                run=prod,
                flows=[
                    Flow(
                        "X",
                        FlowMode.WRITE,
                        unit_size,
                        outputs=[
                            Dep("CONS", lambda p, md: (0,), "X"),
                            Dep("CONS", lambda p, md: (1,), "X"),
                        ],
                    )
                ],
            )
        )
        ptg.add(
            TaskClass(
                name="CONS",
                params=("i",),
                domain=lambda md: [(0,), (1,)],
                placement=lambda p, md: 0,
                run=cons,
                flows=[Flow("X", FlowMode.READ, unit_size)],
            )
        )
        ptg.add(
            TaskClass(
                name="TAIL",
                params=("i",),
                domain=lambda md: [(i,) for i in range(self.TAIL_LEN)],
                placement=lambda p, md: 0,
                run=tail,
                flows=[
                    Flow(
                        "T",
                        FlowMode.RW,
                        unit_size,
                        outputs=[
                            Dep(
                                "TAIL",
                                lambda p, md: (p[0] + 1,),
                                "T",
                                guard=lambda p, md: p[0] < self.TAIL_LEN - 1,
                            )
                        ],
                    )
                ],
            )
        )
        return ptg

    def test_payload_dies_with_its_last_consumer(self):
        freed, consumed = [], []
        cluster = make_cluster(n_nodes=1, cores=3)
        result = ParsecRuntime(cluster).execute(
            self.build(freed, consumed), SimpleNamespace()
        )
        assert len(consumed) == 2
        # freed at the instant the later consumer completed, long before
        # the unrelated chain (and so the run) ended
        assert freed == [max(consumed)]
        assert freed[0] < 0.5 * result.execution_time

    def test_finished_tasks_hold_no_inputs(self):
        cluster = make_cluster(n_nodes=1, cores=3)
        runtime = ParsecRuntime(cluster)
        runtime.execute(self.build([], []), SimpleNamespace())
        # the graph outlives execute() for a caller holding the runtime:
        # every row is done and none holds a payload or a tag
        graph = runtime.graph
        assert all(flags & DONE for flags in graph.flags)
        assert graph.payloads == {} and graph.tags == {}


class TestDtdHandleLifetime:
    def burn(self, seconds, then=None):
        def body(ctx):
            yield ctx.charge(OpCost(seconds, 0.0))
            if then is not None:
                then(ctx)

        return body

    def test_handle_is_dropped_after_its_last_reader(self):
        cluster = make_cluster()
        runtime = DtdRuntime(cluster)
        x = runtime.data("x", 1024, 0)
        y = runtime.data("y", 1, 0)
        seen = {}

        def write(ctx):
            ctx.values[0] = np.ones(1024)

        def read(name):
            def then(ctx):
                seen[name] = ctx.values[0].sum()
                seen[name + ".held"] = x.value is not None

            return then

        def probe(ctx):
            seen["probe"] = x.value

        R, W = (AccessMode.READ,), (AccessMode.WRITE,)
        insert = runtime.insert
        insert(DtdKind("W", self.burn(1.0, write), W), (), (x,), 0)
        insert(DtdKind("R1", self.burn(1.0, read("R1")), R), (), (x,), 0)
        insert(DtdKind("R2", self.burn(2.0, read("R2")), R), (), (x,), 0)
        # unrelated, and still running long after R2 is done
        insert(DtdKind("P", self.burn(10.0, probe), W), (), (y,), 0)
        runtime.execute()
        assert seen["R1"] == seen["R2"] == 1024
        assert seen["R1.held"] and seen["R2.held"]
        assert "probe" in seen and seen["probe"] is None
        assert x.value is None

    def test_rewritten_handle_holds_only_the_new_value(self):
        cluster = make_cluster()
        runtime = DtdRuntime(cluster)
        x = runtime.data("x", 1024, 0)
        freed, seen = [], {}
        now = lambda: cluster.engine.now  # noqa: E731

        def write_old(ctx):
            old = np.zeros(1024)
            weakref.finalize(old, lambda: freed.append(now()))
            ctx.values[0] = old

        def write_new(ctx):
            ctx.values[0] = np.ones(1024)
            seen["rewritten_at"] = now()

        def read_new(ctx):
            seen["value"] = ctx.values[0].sum()
            seen["old_freed_before_read"] = bool(freed)

        R, W = (AccessMode.READ,), (AccessMode.WRITE,)
        insert = runtime.insert
        insert(DtdKind("W1", self.burn(1.0, write_old), W), (), (x,), 0)
        insert(DtdKind("R1", self.burn(1.0), R), (), (x,), 0)
        insert(DtdKind("W2", self.burn(1.0, write_new), W), (), (x,), 0)
        insert(DtdKind("R2", self.burn(5.0, read_new), R), (), (x,), 0)
        runtime.execute()
        assert seen["value"] == 1024 and seen["old_freed_before_read"]
        assert freed == [seen["rewritten_at"]]
        assert x.value is None  # R2 was the last access


class TestRuntimeLifetime:
    @pytest.mark.parametrize("runtime_name", ["v5", "dtd"])
    def test_cluster_forgets_each_levels_runtime(self, runtime_name, monkeypatch):
        runtimes = []
        for cls in (ParsecRuntime, DtdRuntime):

            def init(self, *args, _init=cls.__init__, **kwargs):
                _init(self, *args, **kwargs)
                runtimes.append(weakref.ref(self))

            monkeypatch.setattr(cls, "__init__", init)
        config = api.RunConfig(n_nodes=4, cores_per_node=2)
        workload = api.build("ccsd:tiny", config)
        result = repro.run(workload, runtime=runtime_name, config=config)
        assert len(runtimes) == len(workload.levels()) > 1
        for node in workload.cluster.nodes:
            # the cluster's GA handler is the one mailbox a level leaves
            assert list(node._mailboxes) == [GlobalArrays.INBOX]
        gc.collect()
        assert [ref() for ref in runtimes] == [None] * len(runtimes)
        assert result.n_tasks > 0

    def test_integration_driver_forgets_each_sections_runtime(self):
        from repro.core.integration import NwchemDriver

        config = api.RunConfig(n_nodes=4, cores_per_node=2)
        workload = api.build("ccsd:tiny", config)
        driver = NwchemDriver(workload.cluster, workload.ga)
        result = driver.run(workload.levels())
        assert {kernel.mode for kernel in result.kernels} == {"parsec"}
        for node in workload.cluster.nodes:
            assert list(node._mailboxes) == [GlobalArrays.INBOX]


class TestHostMemory:
    def test_task_runtimes_need_what_legacy_needs(self):
        """``tracemalloc`` peak of ccsd:tiny REAL 4x2, one fresh
        interpreter per runtime (parent commit: v5 1.9x, dtd 2.0x)."""
        peaks = memory_peaks.tracemalloc_peaks()
        assert peaks["v5"] <= 1.3 * peaks["legacy"], peaks
        assert peaks["dtd"] <= 1.3 * peaks["legacy"], peaks


class TestTaskStateBytes:
    """A PTG task is a template row until it runs: what one level of a
    run allocates is its columns (node, pending, a flag byte per row),
    the ready queues' entries for the input-less tasks and the
    per-node runtime objects — not an object per task."""

    #: B per task of ``instantiate`` + ``launch`` on a warm template,
    #: ~10% over the 45.1 B measured (95.0 B with a ``(-priority, seq,
    #: row)`` tuple per ready-queue entry, 382 B with an object and two
    #: dicts per task)
    CEILING = 50

    def test_instantiate_and_launch_bytes_per_task(self, no_collector):
        import tracemalloc

        from repro.core.inspector import inspect_subroutine
        from repro.core.ptg_build import build_ccsd_ptg
        from repro.core.variants import V5

        memo = InspectionCache()
        config = api.RunConfig(
            n_nodes=4, cores_per_node=2, data_mode=DataMode.SYNTH, inspection_cache=memo
        )
        workload = api.build("t2_7:small", config)
        md = inspect_subroutine(workload.levels()[0], workload.cluster, V5, memo)
        ptg = build_ccsd_ptg(V5, md)
        ptg.instantiate(md, config.n_nodes)  # the template, memoised
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            runtime = ParsecRuntime(workload.cluster)
            runtime.launch(ptg, md)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        n_tasks = len(runtime.graph)
        assert n_tasks > 4000
        assert grown / n_tasks <= self.CEILING, (grown, n_tasks)


class TestTemplateBytes:
    """A memoised template is flat typed columns over its rows — class,
    params, node, pending, priority rank and the successor edges — not a
    tuple per task."""

    #: B per task of a warm template on ``t2_7:small``, v1 and v5: ~10%
    #: over the 14.1 B measured (222 B with a ``(key, node, priority,
    #: pending, *edges)`` tuple per row)
    CEILING = 15.5

    @pytest.mark.parametrize("variant_name", ["v1", "v5"])
    def test_warm_template_bytes_per_task(self, variant_name):
        import tracemalloc

        from repro.core.inspector import inspect_subroutine
        from repro.core.ptg_build import build_ccsd_ptg
        from repro.core.variants import PAPER_VARIANTS

        variant = PAPER_VARIANTS[variant_name]
        memo = InspectionCache()
        config = api.RunConfig(
            n_nodes=4, cores_per_node=2, data_mode=DataMode.SYNTH, inspection_cache=memo
        )
        workload = api.build("t2_7:small", config)
        md = inspect_subroutine(workload.levels()[0], workload.cluster, variant, memo)
        ptg = build_ccsd_ptg(variant, md)
        ptg.template(md, config.n_nodes)  # once first: one-time state is not counted
        tracemalloc.start()
        try:
            # a full collection also empties the interpreter's free lists,
            # which would otherwise keep the build's transient key tuples
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            template = ptg.template(md, config.n_nodes)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(template) > 4000
        assert grown / len(template) <= self.CEILING, (grown, len(template))


class TestChainBytes:
    """The inspection keeps what it derives — the chain's node, owners,
    segment length and write segments — not a copy of every GEMM of the
    chain IR, nor a record per segment or reduction step."""

    #: B per GEMM of a cold ``_inspect_chains`` on ``t2_7:small``, 4
    #: nodes: ~10% over the 47.2 B measured at both heights (69.2 and
    #: 356.5 B with a record per segment and reduction step, 279.0 and
    #: 568.1 B with a ``GemmMeta`` and four ``SortMeta`` per chain copied
    #: from the IR)
    CEILING = {"v1": 52.0, "v5": 52.0}

    @pytest.mark.parametrize("variant_name", ["v1", "v5"])
    def test_cold_inspection_bytes_per_gemm(self, variant_name):
        import tracemalloc

        from repro.core.inspector import _inspect_chains
        from repro.core.variants import PAPER_VARIANTS

        variant = PAPER_VARIANTS[variant_name]
        config = api.RunConfig(n_nodes=4, cores_per_node=2, data_mode=DataMode.SYNTH)
        level = api.build("t2_7:small", config).levels()[0]
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            chains = _inspect_chains(level, config.n_nodes, variant)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(chains) == level.n_chains and level.n_gemms > 1000
        print(f"{variant_name}: {grown / level.n_gemms:.1f} B per GEMM")
        assert grown / level.n_gemms <= self.CEILING[variant_name], (
            grown,
            level.n_gemms,
        )


class TestLivePayloadGauge:
    GAUGE = "parsec.live_payload_bytes.hwm"

    def gauges(self, runtime_name, data_mode):
        config = api.RunConfig(n_nodes=4, cores_per_node=2, data_mode=data_mode)
        result = repro.run("t2_7:tiny", runtime=runtime_name, config=config)
        return result.report.metrics["gauges"], result.report

    @pytest.mark.parametrize("runtime_name", ["v5", "dtd"])
    def test_reported_in_real_mode_and_reproducible(self, runtime_name):
        gauges, report = self.gauges(runtime_name, DataMode.REAL)
        assert gauges[self.GAUGE] > 0
        _, again = self.gauges(runtime_name, DataMode.REAL)
        assert report.to_json_line() == again.to_json_line()

    @pytest.mark.parametrize("runtime_name", ["v5", "dtd", "legacy"])
    def test_absent_without_payloads(self, runtime_name):
        mode = DataMode.REAL if runtime_name == "legacy" else DataMode.SYNTH
        gauges, _ = self.gauges(runtime_name, mode)
        assert self.GAUGE not in gauges


class TestReleaseUnderFaults:
    """Inputs are released unconditionally; recovery must not miss them."""

    @pytest.mark.parametrize(
        "stealing", [False, True], ids=["release-x-crash", "release-x-crash-x-stealing"]
    )
    def test_chaos_cell_stays_bitwise(self, stealing):
        result = run_chaos(
            scale="tiny", codes=["v5"], n_nodes=4, cores_per_node=2, stealing=stealing
        )
        (outcome,) = result.outcomes
        assert outcome.counters["nodes_crashed"] == 1
        assert outcome.counters["tasks_reassigned"] > 0
        assert outcome.bitwise_match and outcome.deterministic, outcome


class TestDtdStraggler:
    def run(self, plan):
        cluster = make_cluster()
        if plan is not None:
            cluster.install_faults(plan)
        runtime = DtdRuntime(cluster)
        x = runtime.data("x", 1, 0)

        def body(ctx):
            yield ctx.charge(OpCost(1.0, 0.0))

        runtime.insert(DtdKind("T", body, (AccessMode.WRITE,)), (), (x,), 0)
        return runtime.execute().execution_time

    def test_straggler_window_lengthens_a_dtd_run(self):
        clean = self.run(None)
        window = Straggler(node=0, t_start=0.0, t_end=10.0, factor=3.0)
        slowed = self.run(FaultPlan(stragglers=(window,)))
        assert slowed == pytest.approx(clean + 2.0)
        # a window elsewhere on the clock costs nothing
        idle = Straggler(node=0, t_start=50.0, t_end=60.0, factor=3.0)
        assert self.run(FaultPlan(stragglers=(idle,))) == clean


class TestTensorsDieWithTheWorkload:
    """The cluster's reference cycle (handlers, parked and abandoned
    processes, finished transfers, shut-down runtimes) must not own a
    Global Array: dropping the workload frees its segments at once."""

    CONFIG = dict(n_nodes=4, cores_per_node=2)

    @staticmethod
    def segments_of(workload):
        """Weak references to every owner segment of every tensor."""
        arrays = list(workload.ga._arrays.values())
        assert arrays and all(a.holds_data for a in arrays)
        return [weakref.ref(seg) for a in arrays for seg in a._segments]

    def test_a_built_workload(self, no_collector):
        workload = api.build("ccsd:tiny", api.RunConfig(**self.CONFIG))
        segments = self.segments_of(workload)
        del workload
        assert not any(ref() is not None for ref in segments)

    @pytest.mark.parametrize(
        "runtime_name, knobs",
        [
            ("legacy", {}),
            ("v5", {}),
            ("dtd", {}),
            ("legacy", {"remote_cache": api.RemoteCachePolicy()}),
            ("v5", {"coalescing": api.CoalescePolicy()}),
        ],
        ids=["legacy", "v5", "dtd", "legacy-cache", "v5-coalescing"],
    )
    def test_a_run_workload(self, runtime_name, knobs, no_collector):
        config = api.RunConfig(**self.CONFIG, **knobs)
        workload = api.build("ccsd:tiny", config)
        segments = self.segments_of(workload)
        result = repro.run(workload, runtime=runtime_name, config=config)
        assert result.n_tasks > 0
        del workload, result
        assert not any(ref() is not None for ref in segments)

    def test_a_faulted_stealing_run(self, no_collector):
        config = api.RunConfig(**self.CONFIG, stealing=StealPolicy())
        workload = api.build("ccsd:tiny", config)
        horizon = repro.run(workload, runtime="v5", config=config).execution_time
        del workload
        workload = api.build("ccsd:tiny", config)
        workload.output.array.enable_ordered_accumulation()
        workload.cluster.install_faults(default_plan(11, horizon, config.n_nodes))
        segments = self.segments_of(workload)
        result = repro.run(workload, runtime="v5", config=config)
        report = workload.cluster.faults.report
        assert report.nodes_crashed == 1 and report.retransmits > 0
        del workload, result
        assert not any(ref() is not None for ref in segments)

    def test_a_memo_build_leaves_only_its_draws(self, no_collector):
        """Built and run through a memo: every segment still dies with
        the workload, and the adopted draws live on in the memo alone."""
        memo = InspectionCache()
        config = api.RunConfig(**self.CONFIG, inspection_cache=memo)
        workload = api.build("ccsd:tiny", config)
        segments = self.segments_of(workload)
        draws = [
            weakref.ref(memo.draw(workload.seed, tensor.stream, tensor.total))
            for tensor in workload.structure.tensors
            if tensor.stream is not None
        ]
        assert memo.misses["draw"] == len(draws) == memo.hits["draw"]
        result = repro.run(workload, runtime="v5", config=config)
        del workload, result
        assert not any(ref() is not None for ref in segments)
        assert all(ref() is not None for ref in draws)
        memo._entries.clear()
        assert not any(ref() is not None for ref in draws)

    def test_build_and_drop_rounds_do_not_accumulate(self):
        """Resident memory (after ``malloc_trim``) after the 4th
        build-and-drop of ``ccsd:small`` (105 MB of tensors), collector
        off, in a fresh interpreter: 3.0x the 1st round's at the parent
        commit. ``ccsd:tiny`` is too small to tell (1.12x there)."""
        rounds = memory_peaks.build_and_drop("ccsd:small", 8, 4)
        assert rounds[-1] <= 1.15 * rounds[0], rounds
