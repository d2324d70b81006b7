"""Inter-node work stealing: correctness, makespan, chaos.

The acceptance criteria from the stealing design: on a skewed tiny
workload at >=2 nodes, stealing must strictly reduce the virtual
makespan AND leave the Global Array block contents byte-identical to
the static run at the same seed (WRITE_C accumulation never migrates,
so ordered tagged accumulation sees the same sequence either way).
"""

import dataclasses

import numpy as np
import pytest

from repro.core import api
from repro.core.api import RunConfig
from repro.core.variants import V5
from repro.experiments.calibration import PAPER_MACHINE, make_cluster, make_workload
from repro.parsec.stealing import StealPolicy
from repro.sim.cluster import DataMode
from repro.sim.faults import FaultPlan, NodeCrash
from repro.sim.trace import TaskCategory

#: every steal request of this suite also checks the live-chain index
#: against the full rescan
pytestmark = pytest.mark.usefixtures("steal_index_oracle")

#: the paper's machine is comm-bound at tiny scale, where the benefit
#: filter rightly declines to migrate; an order-of-magnitude slower
#: GEMM unit makes imbalance show up as makespan
COMPUTE_BOUND = PAPER_MACHINE.with_overrides(gemm_gflops=1.0)


def _config(n_nodes, stealing, **overrides):
    """Skewed tiny-scale config: every heavy chain lands on node 0."""
    kwargs = dict(
        n_nodes=n_nodes,
        cores_per_node=2,
        seed=7,
        metrics=False,
        machine=COMPUTE_BOUND,
        skew_factor=6,
        skew_period=n_nodes,
        stealing=stealing,
    )
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def _run(n_nodes, stealing, **overrides):
    config = _config(n_nodes, stealing, **overrides)
    return api.run("t2_7:tiny", variant=V5, config=config)


# ----------------------------------------------------------------------
# bitwise equivalence: the determinism argument, test-asserted
# ----------------------------------------------------------------------
class TestBitwiseEquivalence:
    def test_ga_blocks_identical_with_and_without_stealing(self):
        static = _run(4, None)
        stolen = _run(4, StealPolicy())
        assert stolen.steals_granted > 0  # the comparison must be non-vacuous
        assert np.array_equal(
            static.output.flat_values(), stolen.output.flat_values()
        )

    def test_same_seed_reproduces_the_same_steals(self):
        a = _run(4, StealPolicy())
        b = _run(4, StealPolicy())
        assert a.execution_time == b.execution_time
        assert a.steal_requests == b.steal_requests
        assert a.steals_granted == b.steals_granted
        assert a.chains_migrated == b.chains_migrated
        assert np.array_equal(a.output.flat_values(), b.output.flat_values())


# ----------------------------------------------------------------------
# makespan: stealing must pay for itself on a skewed workload
# ----------------------------------------------------------------------
class TestMakespan:
    @pytest.mark.parametrize("n_nodes", [2, 4])
    def test_stealing_strictly_reduces_skewed_makespan(self, n_nodes):
        static = _run(n_nodes, None)
        stolen = _run(n_nodes, StealPolicy())
        assert stolen.chains_migrated > 0
        assert stolen.execution_time < static.execution_time

    def test_single_node_run_is_a_noop(self):
        # stealing needs a second node; the layer must not even start
        static = _run(1, None)
        stolen = _run(1, StealPolicy())
        assert stolen.steal_requests == 0
        assert stolen.steals_granted == 0
        assert stolen.execution_time == static.execution_time
        assert np.array_equal(
            static.output.flat_values(), stolen.output.flat_values()
        )

    def test_policy_is_a_switch_without_settings(self):
        # the thresholds are module constants (DESIGN.md section 9) and
        # "off" has one spelling, stealing=None
        assert dataclasses.fields(StealPolicy) == ()
        with pytest.raises(TypeError):
            StealPolicy(enabled=False)


# ----------------------------------------------------------------------
# counters, metrics, trace spans
# ----------------------------------------------------------------------
class TestObservability:
    def test_counters_metrics_and_trace_spans(self):
        cluster = make_cluster(
            2,
            n_nodes=4,
            data_mode=DataMode.REAL,
            trace_enabled=True,
            metrics_enabled=True,
            machine=COMPUTE_BOUND,
        )
        workload = make_workload(
            cluster, scale="tiny", seed=7, skew_factor=6, skew_period=4
        )
        result = api.run(
            workload, variant=V5, config=RunConfig(stealing=StealPolicy())
        )
        assert result.steals_granted > 0
        assert result.steals_denied > 0
        # some requests can be in flight when the run completes
        assert result.steal_requests >= result.steals_granted + result.steals_denied
        assert result.chains_migrated >= result.steals_granted
        assert result.migrated_flops > 0
        assert result.steal_forwarded_bytes > 0

        snap = result.metrics
        assert snap["counters"]["steal.granted"] == result.steals_granted
        assert snap["counters"]["steal.denied"] == result.steals_denied
        assert snap["counters"]["steal.requests"] == result.steal_requests
        assert snap["counters"]["steal.migrated_flops"] == result.migrated_flops
        latency = snap["histograms"]["steal.latency_s"]
        assert latency["count"] == result.steals_granted
        assert latency["min"] > 0  # control messages ride the network

        spans = [
            e for e in cluster.trace.events if e.category is TaskCategory.STEAL
        ]
        assert any(e.label.startswith("steal.grant->") for e in spans)
        assert any(e.label.startswith("steal.recv<-") for e in spans)


# ----------------------------------------------------------------------
# chaos: stealing composed with node crashes
# ----------------------------------------------------------------------
class TestStealingUnderCrashes:
    def _run(self, plan=None):
        cluster = make_cluster(
            2, n_nodes=4, data_mode=DataMode.REAL, machine=COMPUTE_BOUND
        )
        workload = make_workload(
            cluster, scale="tiny", seed=7, skew_factor=6, skew_period=4
        )
        workload.i2.array.enable_ordered_accumulation()
        if plan is not None:
            cluster.install_faults(plan)
        result = api.run(
            workload, variant=V5, config=RunConfig(stealing=StealPolicy())
        )
        return workload.i2.flat_values(), result, cluster.faults

    def test_thief_crash_reissues_stolen_work_bitwise(self):
        """Crash a thief mid-run: stolen chains re-home, nothing is lost.

        Node 0 holds every heavy chain (skew_period == n_nodes), so the
        other nodes steal from it; killing node 1 after the first grants
        exercises the stale-GRANT guard and the crash re-homing of
        migrated tasks. The output must still be bitwise identical to
        the fault-free stealing run.
        """
        reference, clean, _ = self._run(None)
        assert clean.steals_granted > 0
        plan = FaultPlan(
            master_seed=9,
            crashes=(NodeCrash(node=1, at=0.5 * clean.execution_time),),
        )
        values, result, faults = self._run(plan)
        assert faults.report.nodes_crashed == 1
        assert faults.report.tasks_reassigned > 0
        assert result.steals_granted > 0
        assert np.array_equal(values, reference)

    def test_crash_run_is_deterministic(self):
        _, clean, _ = self._run(None)
        plan = FaultPlan(
            master_seed=9,
            crashes=(NodeCrash(node=1, at=0.5 * clean.execution_time),),
        )
        values_a, a, _ = self._run(plan)
        values_b, b, _ = self._run(plan)
        assert a.execution_time == b.execution_time
        assert a.steals_granted == b.steals_granted
        assert a.chains_migrated == b.chains_migrated
        assert np.array_equal(values_a, values_b)
