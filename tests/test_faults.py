"""Fault injection and recovery: the chaos-testing machinery.

Covers the FaultPlan's deterministic decisions, the transport's
retransmission loop, stragglers, task retry, the process abort rule,
crash recovery in both runtimes, the stall watchdog, and the end-to-end
chaos acceptance criteria (bitwise equality with the fault-free
reference under a plan injecting every fault class).
"""

import dataclasses

import numpy as np
import pytest

from repro.sim.cluster import Cluster, ClusterConfig, DataMode
from repro.sim.cost import MachineModel
from repro.sim.engine import Engine
from repro.sim import faults
from repro.sim.faults import (
    MAX_BACKOFF_S,
    MAX_RETRANSMITS,
    MAX_TASK_RETRIES,
    RETRANSMIT_TIMEOUT_S,
    FaultPlan,
    FaultReport,
    NodeCrash,
    Straggler,
)
from repro.util.errors import ConfigurationError, StallError, TaskKilled


# ----------------------------------------------------------------------
# FaultPlan: deterministic, seeded, validated
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        a = FaultPlan(master_seed=11, task_fail_prob=0.5, drop_prob=0.2)
        b = FaultPlan(master_seed=11, task_fail_prob=0.5, drop_prob=0.2)
        for attempt in range(4):
            assert a.task_fails("GEMM(3, 1)", attempt) == b.task_fails(
                "GEMM(3, 1)", attempt
            )
            assert a.message_fate("parsec:GEMM", 7, attempt) == b.message_fate(
                "parsec:GEMM", 7, attempt
            )

    def test_different_seeds_differ_somewhere(self):
        a = FaultPlan(master_seed=1, drop_prob=0.5)
        b = FaultPlan(master_seed=2, drop_prob=0.5)
        fates_a = [a.message_fate("t", seq, 0) for seq in range(64)]
        fates_b = [b.message_fate("t", seq, 0) for seq in range(64)]
        assert fates_a != fates_b

    def test_zero_prob_plan_is_inert(self):
        plan = FaultPlan(master_seed=3)
        assert not any(plan.task_fails(f"T({i},)", 0) for i in range(50))
        assert all(plan.message_fate("t", i, 0) == "ok" for i in range(50))

    def test_task_failures_bounded_by_max_retries(self):
        with pytest.raises(TypeError, match="max_task_retries"):
            FaultPlan(max_task_retries=3)
        assert type(MAX_TASK_RETRIES) is int and MAX_TASK_RETRIES >= 1
        plan = FaultPlan(master_seed=5, task_fail_prob=1.0)
        assert plan.task_fails("X", 0)
        assert plan.task_fails("X", MAX_TASK_RETRIES - 1)
        assert not plan.task_fails("X", MAX_TASK_RETRIES)  # past the bound

    def test_drops_suppressed_at_max_retransmits(self, monkeypatch):
        with pytest.raises(TypeError, match="max_retransmits"):
            FaultPlan(max_retransmits=4)
        assert type(MAX_RETRANSMITS) is int and MAX_RETRANSMITS >= 1
        monkeypatch.setattr(faults, "MAX_RETRANSMITS", 4)
        plan = FaultPlan(master_seed=5, drop_prob=1.0)
        assert plan.message_fate("t", 0, 3) == "drop"
        assert plan.message_fate("t", 0, 4) == "ok"

    def test_backoff_is_exponential(self, monkeypatch):
        monkeypatch.setattr(faults, "RETRANSMIT_TIMEOUT_S", 1e-5)
        plan = FaultPlan()
        assert plan.backoff(0) == 1e-5
        assert plan.backoff(3) == 8e-5

    def test_backoff_is_capped(self, monkeypatch):
        monkeypatch.setattr(faults, "RETRANSMIT_TIMEOUT_S", 1e-5)
        monkeypatch.setattr(faults, "MAX_BACKOFF_S", 5e-5)
        plan = FaultPlan()
        assert plan.backoff(0) == 1e-5
        assert plan.backoff(2) == 4e-5
        assert plan.backoff(3) == 5e-5  # 8e-5 clipped to the ceiling
        assert plan.backoff(50) == 5e-5

    def test_backoff_survives_absurd_attempt_counts(self):
        # 2.0**attempt overflows a float past ~1024 attempts; the cap
        # must hold long before and long after that point
        plan = FaultPlan()
        assert plan.backoff(10_000) == MAX_BACKOFF_S
        assert plan.backoff(1023) == MAX_BACKOFF_S

    def test_default_cap_does_not_change_default_schedule(self):
        # retransmit attempts are bounded by MAX_RETRANSMITS, and
        # base * 2**MAX_RETRANSMITS stays under the ceiling — the cap
        # only exists for pathological attempt counts
        plan = FaultPlan()
        for attempt in range(MAX_RETRANSMITS + 1):
            assert plan.backoff(attempt) == RETRANSMIT_TIMEOUT_S * 2.0**attempt

    def test_backoff_cap_validation(self):
        for keyword in ("retransmit_timeout_s", "max_backoff_s"):
            with pytest.raises(TypeError, match=keyword):
                FaultPlan(**{keyword: 1e-4})
        assert MAX_BACKOFF_S >= RETRANSMIT_TIMEOUT_S > 0

    @pytest.mark.parametrize(
        "keyword",
        [
            "max_task_retries",
            "task_fail_detect_s",
            "msg_delay_s",
            "retransmit_timeout_s",
            "max_backoff_s",
            "max_retransmits",
        ],
    )
    def test_recovery_timings_are_not_settings(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            FaultPlan(**{keyword: 1})

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(task_fail_prob=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(drop_prob=0.5, delay_prob=0.4, dup_prob=0.2)  # sums > 1
        with pytest.raises(ConfigurationError):
            Straggler(node=0, t_start=0.0, t_end=1.0, factor=0.5)  # < 1 speeds up
        with pytest.raises(ConfigurationError):
            NodeCrash(node=0, at=-1.0)

    def test_install_faults_rejects_unknown_node(self):
        cluster = _cluster(n_nodes=2)
        with pytest.raises(ConfigurationError):
            cluster.install_faults(FaultPlan(crashes=(NodeCrash(node=7, at=0.0),)))

    def test_install_faults_twice_rejected(self):
        cluster = _cluster(n_nodes=2)
        cluster.install_faults(FaultPlan())
        with pytest.raises(ConfigurationError):
            cluster.install_faults(FaultPlan())


# ----------------------------------------------------------------------
# transport: drop / delay / dup with retransmission
# ----------------------------------------------------------------------
def _cluster(n_nodes=2, cores=1, data_mode=DataMode.SYNTH, machine=None):
    return Cluster(
        ClusterConfig(
            n_nodes=n_nodes,
            cores_per_node=cores,
            machine=machine or MachineModel(),
            data_mode=data_mode,
            trace_enabled=False,
        )
    )


class TestFaultReport:
    #: the counts that show a recovery action was taken
    RECOVERY_ACTIONS = (
        "task_retries",
        "retransmits",
        "tasks_recomputed",
        "tasks_reassigned",
        "tickets_reissued",
        "chains_recovered",
        "nodes_crashed",
    )

    def test_recovered_is_any_recovery_action(self):
        assert not FaultReport().recovered
        for name in self.RECOVERY_ACTIONS:
            assert FaultReport(**{name: 1}).recovered, name

    def test_faults_without_a_recovery_action_are_not_recovered(self):
        others = {
            spec.name for spec in dataclasses.fields(FaultReport)
        } - set(self.RECOVERY_ACTIONS)
        assert others == {
            "messages_dropped",
            "messages_delayed",
            "messages_duplicated",
            "ranks_lost",
            "recovery_overhead_s",
        }
        assert not FaultReport(**{name: 1 for name in others}).recovered


class TestTransportFaults:
    def _delivery_time(self, plan):
        cluster = _cluster(n_nodes=2)
        if plan is not None:
            cluster.install_faults(plan)
        arrivals = []
        cluster.network.send(
            0, 1, 1024.0, "payload", tag="t", on_deliver=lambda m: arrivals.append(
                (cluster.engine.now, m.payload)
            )
        )
        cluster.run()
        assert arrivals and arrivals[0][1] == "payload"
        return arrivals[0][0]

    def test_dropped_message_is_retransmitted_and_arrives(self, monkeypatch):
        clean = self._delivery_time(None)
        monkeypatch.setattr(faults, "MAX_RETRANSMITS", 2)
        monkeypatch.setattr(faults, "RETRANSMIT_TIMEOUT_S", 1e-5)
        faulted = self._delivery_time(FaultPlan(master_seed=1, drop_prob=1.0))
        # two forced drops cost two backoffs (1x + 2x timeout) plus the
        # extra TX serializations before the third attempt succeeds
        assert faulted > clean + 3e-5

    def test_drop_counters(self, monkeypatch):
        monkeypatch.setattr(faults, "MAX_RETRANSMITS", 3)
        cluster = _cluster(n_nodes=2)
        injector = cluster.install_faults(FaultPlan(master_seed=1, drop_prob=1.0))
        got = []
        cluster.network.send(0, 1, 64.0, "x", tag="t", on_deliver=got.append)
        cluster.run()
        assert got and injector.report.messages_dropped == 3
        assert injector.report.retransmits == 3
        assert injector.report.recovery_overhead_s > 0

    def test_delay_and_dup_preserve_exactly_once(self):
        cluster = _cluster(n_nodes=2)
        injector = cluster.install_faults(
            FaultPlan(master_seed=1, delay_prob=0.5, dup_prob=0.5)
        )
        got = []
        for _ in range(20):
            cluster.network.send(0, 1, 64.0, "x", tag="t", on_deliver=got.append)
        cluster.run()
        assert len(got) == 20  # duplicates discarded by sequence number
        assert injector.report.messages_delayed > 0
        assert injector.report.messages_duplicated > 0
        # duplicate-byte reconciliation: the second RX crossing of a
        # duplicated message is charged to net.dup_bytes, never to
        # bytes_sent — so payload accounting and wire accounting agree
        net = cluster.network
        assert net.dup_bytes == 64.0 * injector.report.messages_duplicated
        assert net.bytes_sent == 64.0 * 20
        assert cluster.metrics.counter_value("net.dup_bytes") == net.dup_bytes
        wire_rx_bytes = net.bytes_sent + net.dup_bytes
        assert wire_rx_bytes == cluster.metrics.counter_value("net.bytes") + (
            net.dup_bytes
        )

    def test_local_messages_bypass_faults(self):
        cluster = _cluster(n_nodes=2)
        injector = cluster.install_faults(FaultPlan(master_seed=1, drop_prob=1.0))
        got = []
        cluster.network.send(0, 0, 64.0, "x", tag="t", on_deliver=got.append)
        cluster.run()
        assert got and injector.report.messages_dropped == 0


# ----------------------------------------------------------------------
# stragglers
# ----------------------------------------------------------------------
class TestStragglers:
    def test_cpu_scale_window(self):
        cluster = _cluster(n_nodes=2)
        cluster.install_faults(
            FaultPlan(stragglers=(Straggler(node=1, t_start=1.0, t_end=2.0, factor=3.0),))
        )
        node = cluster.nodes[1]
        assert node.cpu_scale() == 1.0
        cluster.run(until=1.5)
        assert node.cpu_scale() == 3.0
        assert cluster.nodes[0].cpu_scale() == 1.0
        cluster.run(until=2.5)
        assert node.cpu_scale() == 1.0

    def test_straggler_stretches_occupy(self):
        def busy_until(plan):
            cluster = _cluster(n_nodes=1)
            if plan is not None:
                cluster.install_faults(plan)
            done = []

            def work():
                yield cluster.nodes[0].occupy(1.0)
                done.append(cluster.engine.now)

            cluster.engine.process(work())
            cluster.run()
            return done[0]

        assert busy_until(None) == pytest.approx(1.0)
        slowed = busy_until(
            FaultPlan(stragglers=(Straggler(node=0, t_start=0.0, t_end=10.0, factor=2.0),))
        )
        assert slowed == pytest.approx(2.0)


# ----------------------------------------------------------------------
# the abort rule (Process.abort / Process.abortable)
# ----------------------------------------------------------------------
def _guarded(engine, body, abort, log):
    """Drive ``body`` in a fresh process under ``abort``, as the
    runtimes drive a task body; whether it completed goes to ``log``."""
    box = []

    def driver():
        completed = yield from box[0].abortable(body, abort)
        log.append(completed)

    box.append(engine.process(driver()))


class TestKillable:
    """The five behaviours of the abort rule, in the names of the
    wrapper it replaced (``tests/sim/reference_models.killable``)."""

    def test_body_completes_when_not_killed(self):
        engine = Engine()
        log = []

        def body():
            yield engine.timeout(1.0)
            log.append("ran")

        _guarded(engine, body(), lambda: False, log)
        engine.run()
        assert log == ["ran", True]

    def test_kill_aborts_at_next_yield(self):
        engine = Engine()
        dead = [False]
        log = []

        def body():
            log.append("start")
            yield engine.timeout(1.0)
            log.append("mid")
            yield engine.timeout(1.0)
            log.append("never")

        _guarded(engine, body(), lambda: dead[0], log)
        engine.schedule(1.5, dead.__setitem__, 0, True)
        engine.run()
        assert log == ["start", "mid", False]

    def test_cleanup_yields_still_driven_after_kill(self):
        engine = Engine()
        dead = [False]
        log = []

        def body():
            try:
                yield engine.timeout(1.0)
                yield engine.timeout(1.0)
            finally:
                # mutex-unlock style cleanup that itself costs time
                yield engine.timeout(0.5)
                log.append(("cleaned", engine.now))

        _guarded(engine, body(), lambda: dead[0], log)
        engine.schedule(1.25, dead.__setitem__, 0, True)
        engine.run()
        # killed at the t=2.0 resume; cleanup runs 2.0 -> 2.5 unchecked
        assert log == [("cleaned", 2.5), False]

    def test_body_exception_propagates(self):
        from repro.util.errors import SimulationError

        engine = Engine()

        def body():
            yield engine.timeout(1.0)
            raise ValueError("genuine bug")

        _guarded(engine, body(), lambda: False, [])
        with pytest.raises(SimulationError, match="unhandled exception") as excinfo:
            engine.run()
        assert "genuine bug" in str(excinfo.value.__cause__)

    def test_body_may_swallow_the_kill(self):
        engine = Engine()
        log = []

        def body():
            try:
                yield engine.timeout(1.0)
            except TaskKilled:
                log.append("caught")
                return

        _guarded(engine, body(), lambda: True, log)
        engine.run()
        # the body caught TaskKilled and returned; still counts as killed
        assert log == ["caught", False]

    def test_slot_is_clear_outside_the_body(self):
        engine = Engine()
        seen = []

        def driver():
            me = box[0]
            seen.append(me.abort)
            yield from me.abortable(body(), lambda: False)
            seen.append(me.abort)
            yield engine.timeout(1.0)

        def body():
            seen.append(box[0].abort is not None)
            yield engine.timeout(1.0)

        box = [engine.process(driver())]
        engine.run()
        assert seen == [None, True, None]


# ----------------------------------------------------------------------
# runtime-level recovery (tiny REAL workloads)
# ----------------------------------------------------------------------
def _fresh_workload(n_nodes=4, cores=2, scale="tiny"):
    from repro.experiments.calibration import make_cluster, make_workload

    cluster = make_cluster(cores, n_nodes=n_nodes, data_mode=DataMode.REAL)
    workload = make_workload(cluster, scale=scale, seed=7)
    return cluster, workload


class TestParsecRecovery:
    def _run(self, plan, variant_name="v4"):
        from repro.core.api import run

        cluster, workload = _fresh_workload()
        workload.i2.array.enable_ordered_accumulation()
        if plan is not None:
            cluster.install_faults(plan)
        result = run(workload, variant_name)
        return workload.i2.flat_values(), result, cluster.faults

    def test_task_retries_counted_and_harmless(self, monkeypatch):
        reference, _, _ = self._run(None)
        monkeypatch.setattr(faults, "MAX_TASK_RETRIES", 5)
        plan = FaultPlan(master_seed=9, task_fail_prob=0.3)
        values, _, injector = self._run(plan)
        assert injector.report.task_retries > 0
        assert np.array_equal(values, reference)

    def test_crash_recovery_is_bitwise(self):
        reference, clean, _ = self._run(None)
        plan = FaultPlan(
            master_seed=9,
            crashes=(NodeCrash(node=1, at=0.4 * clean.execution_time),),
        )
        values, _, injector = self._run(plan)
        assert injector.report.nodes_crashed == 1
        assert injector.report.tasks_reassigned > 0
        assert np.array_equal(values, reference)

    def test_crash_with_no_survivors_raises_stall_report(self):
        from repro.core.api import run

        cluster, workload = _fresh_workload(n_nodes=1, cores=1)
        cluster.install_faults(FaultPlan(crashes=(NodeCrash(node=0, at=1e-6),)))
        with pytest.raises(StallError, match="stalled") as excinfo:
            run(workload, "v1")
        message = str(excinfo.value)
        assert "alive=False" in message
        assert "fault report" in message
        assert excinfo.value.report is not None
        assert excinfo.value.report.nodes_crashed == 1


class TestLegacyRecovery:
    def _run(self, plan):
        from repro.legacy.runtime import LegacyRuntime

        cluster, workload = _fresh_workload()
        workload.i2.array.enable_ordered_accumulation()
        if plan is not None:
            cluster.install_faults(plan)
        result = LegacyRuntime(cluster, workload.ga).execute_subroutine(
            workload.subroutine
        )
        return workload.i2.flat_values(), result, cluster.faults

    def test_crash_recovery_reissues_tickets(self):
        reference, clean, _ = self._run(None)
        plan = FaultPlan(
            master_seed=9,
            crashes=(NodeCrash(node=1, at=0.4 * clean.execution_time),),
        )
        values, result, injector = self._run(plan)
        assert injector.report.ranks_lost > 0
        assert np.array_equal(values, reference)
        # every chain is accounted for: executed includes recovered ones
        assert result.chains_executed == clean.chains_executed

    def test_static_assignment_rejects_crash_plans(self):
        from repro.legacy.runtime import LegacyConfig, LegacyRuntime

        cluster, workload = _fresh_workload()
        cluster.install_faults(FaultPlan(crashes=(NodeCrash(node=1, at=1e-5),)))
        runtime = LegacyRuntime(
            cluster, workload.ga, LegacyConfig(use_nxtval=False)
        )
        with pytest.raises(ConfigurationError, match="use_nxtval"):
            runtime.execute_subroutine(workload.subroutine)


class TestCrashInsideACharge:
    """A crash that lands in the CPU phase of a two-phase charge (CPU
    time, then bytes through memory bandwidth) kills the body when that
    phase ends, before its transfer is issued — where the generator
    helper the one-waitable charge replaced was resumed and killed. The
    recovery counters are pinned as the generator helper left them."""

    def test_parsec_body_dies_before_its_transfer(self):
        from types import SimpleNamespace

        from repro.parsec.ptg import PTG
        from repro.parsec.runtime import ParsecRuntime
        from repro.parsec.taskclass import Flow, FlowMode, TaskClass
        from repro.sim.cost import OpCost

        cluster = _cluster(n_nodes=2, cores=1)
        # node 1's first task is 0.5 s into its 1 s CPU phase
        cluster.install_faults(FaultPlan(crashes=(NodeCrash(node=1, at=0.5),)))

        def body(ctx):
            yield ctx.charge(OpCost(1.0, 400.0))

        ptg = PTG("charges")
        ptg.add(
            TaskClass(
                name="T",
                params=("i",),
                domain=lambda md: [(i,) for i in range(4)],
                placement=lambda p, md: p[0] % 2,
                run=body,
                flows=[Flow("C", FlowMode.WRITE, lambda p, md: 1)],
            )
        )
        ParsecRuntime(cluster).execute(ptg, SimpleNamespace())
        report = cluster.faults.report
        assert report.nodes_crashed == 1
        # the killed body never moved its bytes; all four ran on node 0
        assert cluster.nodes[1].membw.total_work == 0.0
        assert cluster.nodes[0].membw.total_work == 4 * 400.0
        assert report.tasks_recomputed == 1
        assert report.recovery_overhead_s.hex() == "0x1.0000000000000p+0"

    def test_legacy_chain_dies_before_its_transfer(self, monkeypatch):
        from repro.legacy.runtime import LegacyRuntime
        from repro.sim.resources import BandwidthResource
        from repro.sim.trace import TaskCategory

        transfer = BandwidthResource.transfer
        issued = []

        def spy(self, amount):
            issued.append((self.name, self.engine.now, amount))
            return transfer(self, amount)

        monkeypatch.setattr(BandwidthResource, "transfer", spy)

        def run(crash_at=None):
            cluster, workload = _fresh_workload()
            cluster.trace.enabled = crash_at is None
            workload.i2.array.enable_ordered_accumulation()
            if crash_at is not None:
                cluster.install_faults(
                    FaultPlan(crashes=(NodeCrash(node=1, at=crash_at),))
                )
            issued.clear()
            result = LegacyRuntime(cluster, workload.ga).execute_subroutine(
                workload.subroutine
            )
            return cluster, workload, result

        # the first GEMM on node 1 and the instant its CPU phase ends
        cluster, workload, _ = run()
        span = min(
            (
                e
                for e in cluster.trace.events
                if e.node == 1 and e.category is TaskCategory.GEMM
            ),
            key=lambda e: e.t_start,
        )
        chain = next(
            c for c in workload.subroutine.chains if c.chain_id == span.meta["chain"]
        )
        gemm = chain.gemms[span.meta["position"]]
        cost = cluster.machine.gemm(gemm.m, gemm.n, gemm.k)
        assert cost.cpu > 0 and cost.bytes > 0
        its_transfer = ("membw1", span.t_start + cost.cpu, cost.bytes)
        assert its_transfer in issued

        cluster, _, _ = run(crash_at=span.t_start + cost.cpu / 2)
        report = cluster.faults.report
        assert report.ranks_lost > 0
        assert its_transfer not in issued
        assert report.tasks_recomputed == 0
        assert report.recovery_overhead_s.hex() == "0x0.0p+0"


# ----------------------------------------------------------------------
# the acceptance sweep
# ----------------------------------------------------------------------
class TestChaosSweep:
    def test_tiny_sweep_meets_acceptance_criteria(self):
        from repro.experiments.chaos import run_chaos

        result = run_chaos(scale="tiny", n_nodes=4, cores_per_node=2)
        assert len(result.outcomes) == 6  # legacy + v1..v5
        for outcome in result.outcomes:
            assert outcome.bitwise_match, outcome.name
            assert outcome.deterministic, outcome.name
            assert outcome.faults_recovered, outcome.name
        # every fault class fired somewhere in the sweep
        totals = {}
        for outcome in result.outcomes:
            for key, value in outcome.counters.items():
                totals[key] = totals.get(key, 0) + value
        for key in (
            "task_retries",
            "messages_dropped",
            "messages_delayed",
            "messages_duplicated",
            "retransmits",
            "nodes_crashed",
        ):
            assert totals[key] > 0, key
        assert totals["tasks_reassigned"] + totals["tasks_recomputed"] > 0
        assert totals["tickets_reissued"] > 0
        assert totals["chains_recovered"] > 0

    def test_stealing_under_faults_stays_bitwise_and_deterministic(self):
        """The chaos x stealing interaction: a fault sweep against the
        PTG runtime with work stealing enabled must still recover to
        the bitwise fault-free reference, deterministically."""
        from repro.experiments.chaos import run_chaos

        result = run_chaos(
            scale="tiny", n_nodes=4, cores_per_node=2,
            codes=["v5"], stealing=True,
        )
        (outcome,) = result.outcomes
        assert outcome.bitwise_match
        assert outcome.deterministic
        assert outcome.faults_recovered

    def test_codes_subset_restricts_the_sweep(self):
        from repro.experiments.chaos import run_chaos

        result = run_chaos(
            scale="tiny", n_nodes=2, cores_per_node=1, codes=["original"]
        )
        assert [o.name for o in result.outcomes] == ["original"]
        assert result.outcomes[0].ok

    def test_stencil_workload_recovers_bitwise(self):
        """The rbgs stencil under the fault plan: both colored waves
        recover to the bitwise fault-free grid — a crash in the red
        wave makes the black wave's PTG re-home the dead node's tiles
        at launch, across the level barrier."""
        from repro.experiments.chaos import run_chaos

        result = run_chaos(
            scale="tiny", n_nodes=4, cores_per_node=2,
            codes=["original", "v1", "v5"], workload="rbgs",
        )
        assert [o.name for o in result.outcomes] == ["original", "v1", "v5"]
        for outcome in result.outcomes:
            assert outcome.bitwise_match, outcome.name
            assert outcome.deterministic, outcome.name
            assert outcome.faults_recovered, outcome.name


# ----------------------------------------------------------------------
# dead getters: a worker killed mid-get() must not eat queued work
# ----------------------------------------------------------------------
class TestDeadGetterRegression:
    def test_worker_killed_mid_get_loses_no_tasks(self):
        """Regression for silent task loss under crashes.

        A worker blocked on ``ready.get()`` when its node dies leaves a
        pending SimEvent in the store's getter queue. Before the fix, a
        later ``put()`` succeeded that corpse event: the dead worker woke,
        saw ``not node.alive``, and broke — the task vanished. The crash
        path now abandons parked getters (``NodeScheduler.drain``), and
        ``put()`` skips abandoned/triggered events.
        """
        from repro.sim.queues import Store

        engine = Engine()
        store = Store(engine)
        node_alive = [True]
        processed = []

        def worker():
            while True:
                task = yield store.get()
                if not node_alive[0]:
                    break  # crash semantics: abort without processing
                processed.append(task)

        engine.process(worker())

        def crash():
            node_alive[0] = False
            store.abandon_getters()  # what NodeScheduler.drain() does now

        engine.schedule(1.0, crash)
        engine.schedule(2.0, store.put, "re-homed-task")
        engine.run()
        # the corpse neither processed nor consumed the task ...
        assert processed == []
        # ... which is still in the store for a recovery worker to claim
        assert len(store) == 1

    def test_scheduler_drain_abandons_parked_workers(self):
        """End to end: crash a node, then check its ready-store getters died."""
        from repro.core.inspector import inspect_subroutine
        from repro.core.ptg_build import build_ccsd_ptg
        from repro.core.variants import variant_by_name
        from repro.parsec.runtime import ParsecRuntime

        cluster, workload = _fresh_workload()
        cluster.install_faults(
            FaultPlan(master_seed=31, crashes=(NodeCrash(node=1, at=1e-4),))
        )
        variant = variant_by_name("v5")
        md = inspect_subroutine(workload.subroutine, cluster, variant)
        runtime = ParsecRuntime(cluster)
        runtime.execute(build_ccsd_ptg(variant, md), md)
        assert cluster.faults.report.nodes_crashed == 1
        assert cluster.faults.report.tasks_reassigned > 0
        # drain() removed (and abandoned) every getter parked at crash
        # time: no corpse is left for a stray put() to resurrect
        dead_ready = runtime.schedulers[1].ready
        assert len(dead_ready._getters) == 0
        dead_ready.put(0, 0)  # a stray row 0 at the top priority rank
        assert len(dead_ready) == 1  # buffered, not fed to a dead worker


# ----------------------------------------------------------------------
# cancelled-timer churn: the event heap must stay bounded
# ----------------------------------------------------------------------
class TestHeapBoundedUnderChaos:
    def test_retransmit_timer_churn_keeps_heap_bounded(self):
        """Every delivered message cancels its ack timer; dead entries
        must be compacted away instead of accumulating for the whole run."""
        cluster = _cluster(n_nodes=2)
        cluster.install_faults(FaultPlan(master_seed=9, drop_prob=0.15))
        engine = cluster.engine
        delivered = []
        peak_cancelled = [0]

        def sender():
            for i in range(400):
                cluster.network.send(
                    0,
                    1,
                    256.0,
                    i,
                    tag="t",
                    on_deliver=lambda m: delivered.append(m.payload),
                )
                peak_cancelled[0] = max(
                    peak_cancelled[0], engine.timeline.stale_pending
                )
                yield engine.timeout(1e-6)

        engine.process(sender())
        cluster.run()
        assert sorted(delivered) == list(range(400))
        # lazy-cancelled entries never exceed the compaction threshold
        # plus half the live heap — no monotone growth
        timeline = engine.timeline
        assert peak_cancelled[0] <= 64 + timeline.pending // 2 + 400
        assert timeline.stale_pending * 2 <= max(128, timeline.pending)
