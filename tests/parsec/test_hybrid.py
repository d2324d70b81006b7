"""Tests for the hybrid (accelerator) execution path."""

import numpy as np
import pytest

from repro.core import api
from repro.core.variants import V5
from repro.parsec.stealing import StealPolicy
from repro.sim.cluster import ClusterConfig, DataMode
from repro.sim.cost import MachineModel
from repro.sim.faults import FaultPlan, NodeCrash
from repro.tce.reference import compute_reference
from repro.util.errors import ConfigurationError


def make_run(gpus_per_node=0, cores=2, data_mode=DataMode.REAL, **overrides):
    config = api.RunConfig(
        n_nodes=4,
        cores_per_node=cores,
        machine=MachineModel(**overrides),
        data_mode=data_mode,
        trace=True,
        gpus_per_node=gpus_per_node,
    )
    workload = api.build("t2_7:tiny", config)
    return workload.cluster, workload, api.run(workload, variant=V5, config=config)


class TestHybridExecution:
    def test_gpu_run_matches_reference_numerically(self):
        cluster, workload, run = make_run(gpus_per_node=1)
        expected = compute_reference(workload)
        np.testing.assert_allclose(
            workload.i2.flat_values(), expected, rtol=1e-12, atol=1e-12
        )

    def test_gemms_execute_on_gpu_rows(self):
        cluster, workload, run = make_run(gpus_per_node=1, data_mode=DataMode.SYNTH)
        from repro.sim.trace import TaskCategory

        gemms = cluster.trace.filtered(category=TaskCategory.GEMM)
        assert len(gemms) == workload.subroutine.n_gemms
        # all GEMM spans sit on the dedicated GPU row (thread cores+1)
        assert {g.thread for g in gemms} == {cluster.cores_per_node + 1}
        assert all(g.meta["device"] == "gpu0" for g in gemms)

    def test_two_gpus_share_the_work(self):
        cluster, workload, run = make_run(gpus_per_node=2, data_mode=DataMode.SYNTH)
        from repro.sim.trace import TaskCategory

        rows = {g.thread for g in cluster.trace.filtered(category=TaskCategory.GEMM)}
        assert rows == {cluster.cores_per_node + 1, cluster.cores_per_node + 2}

    def test_device_tasks_reach_the_duration_histogram(self):
        cluster, _, run = make_run(gpus_per_node=1, data_mode=DataMode.SYNTH)
        metrics = cluster.metrics
        on_cpu = metrics.counter_total("sched.tasks_executed")
        on_gpu = metrics.counter_total("sched.gpu_tasks_executed")
        assert on_gpu > 0 and on_cpu + on_gpu == run.n_tasks
        durations = metrics.snapshot()["histograms"]["sched.task_duration_s"]
        assert durations["count"] == on_cpu + on_gpu

    def test_gpu_speeds_up_compute_bound_configuration(self):
        """At 1 core/node the CPU run is compute-bound; an accelerator
        with a much higher DGEMM rate must win."""
        _, _, cpu_run = make_run(gpus_per_node=0, cores=1, data_mode=DataMode.SYNTH)
        _, _, gpu_run = make_run(gpus_per_node=1, cores=1, data_mode=DataMode.SYNTH)
        assert gpu_run.execution_time < cpu_run.execution_time

    def test_pcie_staging_costs_time(self):
        """A near-zero PCIe link makes the GPU path slower, not faster."""
        _, _, fast = make_run(
            gpus_per_node=1, cores=1, data_mode=DataMode.SYNTH
        )
        _, _, slow = make_run(
            gpus_per_node=1,
            cores=1,
            data_mode=DataMode.SYNTH,
            pcie_bytes_per_s=1.0e6,
        )
        assert slow.execution_time > fast.execution_time

    def test_non_accelerated_tasks_stay_on_cpu(self):
        cluster, workload, run = make_run(gpus_per_node=1, data_mode=DataMode.SYNTH)
        from repro.sim.trace import TaskCategory

        for category in (TaskCategory.SORT, TaskCategory.WRITE, TaskCategory.REDUCE):
            spans = cluster.trace.filtered(category=category)
            assert spans, category
            assert all(s.thread < cluster.cores_per_node for s in spans)

    def test_negative_gpu_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(gpus_per_node=-1)

    def test_gpu_gemm_cost_has_no_host_traffic(self):
        machine = MachineModel()
        cpu_cost = machine.gemm(64, 64, 64)
        gpu_cost = machine.gemm(64, 64, 64, device="gpu")
        assert gpu_cost.bytes == 0.0
        assert gpu_cost.cpu < cpu_cost.cpu


class TestHybridUnderFaultsAndStealing:
    """The device worker runs the same loop as a core's: retry gate,
    crash re-homing and stale-entry skips included — and, finding
    ``gpu_ready`` empty, it still never opens a steal episode."""

    def run(self, skew, stealing, plan=None):
        config = api.RunConfig(
            n_nodes=4,
            cores_per_node=2,
            gpus_per_node=1,
            skew_factor=skew[0],
            skew_period=skew[1],
            stealing=stealing,
        )
        workload = api.build("t2_7:tiny", config)
        workload.i2.array.enable_ordered_accumulation()
        if plan is not None:
            workload.cluster.install_faults(plan)
        result = api.run(workload, variant=V5, config=config)
        return workload.i2.flat_values(), result, workload.cluster.faults

    # execution times and steal_requests as at the commit before the
    # CPU and GPU worker loops were merged
    @pytest.mark.parametrize(
        "skew, stealing, clean_hex, faulted_hex, steal_requests",
        [
            ((1, 0), None, "0x1.da824c10a089ap-12", "0x1.4202e1d37fc37p-11", (0, 0)),
            ((6, 4), None, "0x1.17fb1e21896e4p-9", "0x1.27d20db80c8eep-9", (0, 0)),
            (
                (6, 4),
                StealPolicy(),
                "0x1.17fb1e21896e4p-9",
                "0x1.27d20db80c8eep-9",
                (320, 246),
            ),
        ],
        ids=["even", "skewed", "skewed-stealing"],
    )
    def test_recovery_is_bitwise_and_pinned(
        self, skew, stealing, clean_hex, faulted_hex, steal_requests
    ):
        reference, clean, _ = self.run(skew, stealing)
        plan = FaultPlan(
            master_seed=5,
            task_fail_prob=0.1,
            drop_prob=0.02,
            crashes=(NodeCrash(1, clean.execution_time / 3),),
        )
        output, faulted, injector = self.run(skew, stealing, plan)
        assert np.array_equal(reference, output)
        report = injector.report
        assert report.tasks_reassigned > 0 and report.task_retries > 0
        assert clean.execution_time.hex() == clean_hex
        assert faulted.execution_time.hex() == faulted_hex
        assert (clean.steal_requests, faulted.steal_requests) == steal_requests
