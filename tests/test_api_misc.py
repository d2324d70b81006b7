"""API-surface and miscellaneous coverage tests."""

import importlib
import pkgutil

import pytest

import repro
from repro.core.api import RunConfig, build, ptg_pipeline
from repro.core.variants import V5
from repro.experiments.fig9 import Fig9Result
from repro.sim.cluster import DataMode
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.trace import TraceRecorder

#: ``repro`` and every package under it
PACKAGES = ["repro"] + [
    name
    for _, name, is_package in pkgutil.iter_modules(repro.__path__, "repro.")
    if is_package
]


class TestTopLevelApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_headline_workflow_via_top_level_names(self):
        config = repro.RunConfig(
            n_nodes=4, cores_per_node=2, data_mode=repro.DataMode.REAL
        )
        result = repro.run("t2_7:tiny", runtime="parsec", variant=repro.V5, config=config)
        assert result.report.workload == "icsd_t2_7"
        assert result.execution_time > 0

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_exports_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", ()):
            assert getattr(module, name) is not None, f"{package}.{name}"

    def test_paper_variants_exposed(self):
        assert set(repro.PAPER_VARIANTS) == {"v1", "v2", "v3", "v4", "v5"}
        assert repro.variant_by_name("v5") is repro.V5


class TestNetworkDelivery:
    def test_on_deliver_callback_path(self):
        from repro.sim.cost import MachineModel

        engine = Engine()
        machine = MachineModel()
        network = Network(engine, machine)
        trace = TraceRecorder()
        for node_id in range(2):
            network.register(Node(engine, node_id, machine, 2, trace))
        got = []
        network.send(0, 1, 100.0, "payload", on_deliver=lambda m: got.append(m.payload))
        engine.run()
        assert got == ["payload"]

    def test_inbox_and_callback_are_exclusive(self):
        from repro.sim.cost import MachineModel
        from repro.util.errors import SimulationError

        engine = Engine()
        network = Network(engine, MachineModel())
        network.register(Node(engine, 0, MachineModel(), 1, TraceRecorder()))
        with pytest.raises(SimulationError):
            network.send(0, 0, 1.0, None)  # neither given
        with pytest.raises(SimulationError):
            network.send(0, 0, 1.0, None, inbox="x", on_deliver=lambda m: None)


class TestDescriptions:
    def test_subroutine_and_run_describe(self):
        config = RunConfig(n_nodes=2, data_mode=DataMode.SYNTH)
        workload = build("t2_7:tiny", config)
        _, _, metadata = ptg_pipeline(workload.cluster, workload.subroutine, V5, config)
        assert "chains" in workload.subroutine.describe()
        assert "icsd_t2_7 [v5]" in metadata.describe()
        result = repro.run(workload, "v5", config=config)
        assert result.variant == "v5" and "tasks" in result.summary()

    def test_fig9_chart_and_best(self):
        times = {
            "original": {1: 90.0, 7: 28.0, 15: 29.0},
            "v5": {1: 85.0, 7: 12.0, 15: 8.7},
        }
        result = Fig9Result(times, (1, 7, 15), "paper", 32)
        assert result.best_original() == (7, 28.0)
        chart = result.chart(width=40, height=10)
        assert "Figure 9" in chart
        assert "o=original" in chart


class TestTraceRecorderExtras:
    def test_json_roundtrip_preserves_events(self):
        # the recorder keeps the spans; it has no JSON form of its own
        from repro.sim.trace import TaskCategory

        trace = TraceRecorder()
        trace.record(1, 2, TaskCategory.GEMM, "g", 0.5, 1.5, {"x": 1})
        with pytest.raises(AttributeError):
            trace.to_json()
        event = trace.events[0]
        assert event.node == 1 and event.thread == 2
        assert event.category is TaskCategory.GEMM
        assert event.meta == {"x": 1}

    def test_invalid_span_rejected(self):
        from repro.sim.trace import TaskCategory

        trace = TraceRecorder()
        with pytest.raises(ValueError):
            trace.record(0, 0, TaskCategory.GEMM, "bad", 2.0, 1.0)

    def test_makespan_and_filters(self):
        from repro.sim.trace import TaskCategory

        trace = TraceRecorder()
        trace.record(0, 0, TaskCategory.GEMM, "a", 1.0, 2.0)
        trace.record(1, 0, TaskCategory.SORT, "b", 3.0, 5.0)
        assert trace.makespan() == 4.0
        assert len(trace.filtered(node=1)) == 1
        assert len(trace.filtered(predicate=lambda e: e.duration > 1.5)) == 1
        assert trace.threads() == [(0, 0), (1, 0)]


class TestIntegrationDriverConfig:
    def test_driver_honours_legacy_config(self):
        from repro.core.integration import NwchemDriver
        from repro.legacy.runtime import LegacyConfig

        config = RunConfig(n_nodes=2, cores_per_node=2, data_mode=DataMode.SYNTH)
        workload = build("t2_7:tiny", config)
        cluster = workload.cluster
        driver = NwchemDriver(
            cluster,
            workload.ga,
            parsec_kernels=set(),  # everything legacy
            legacy_config=LegacyConfig(use_nxtval=False),
        )
        result = driver.run([workload.subroutine])
        assert result.kernels[0].mode == "legacy"
        # static mode: no nxtval traffic at all
        assert cluster.network.messages_sent > 0

    def test_uses_parsec_predicate(self):
        from repro.core.integration import NwchemDriver

        workload = build("t2_7:tiny", RunConfig(n_nodes=2))
        driver_all = NwchemDriver(workload.cluster, workload.ga)
        driver_none = NwchemDriver(workload.cluster, workload.ga, parsec_kernels=set())
        assert driver_all.uses_parsec(workload.subroutine)
        assert not driver_none.uses_parsec(workload.subroutine)


class TestOpCostHelpers:
    def test_wire_time_and_memcpy(self):
        from repro.sim.cost import MachineModel

        machine = MachineModel(nic_bw_bytes_per_s=1e9)
        assert machine.wire_time(1e9) == pytest.approx(1.0)
        assert machine.memcpy(100).bytes == 1600.0
        assert machine.zero_fill(100).bytes == 800.0

    def test_run_until_idle_equivalence(self):
        """cluster.run(until=...) past the workload end equals free run."""
        def final_time(until):
            config = RunConfig(n_nodes=2, data_mode=DataMode.SYNTH)
            workload = build("t2_7:tiny", config)
            from repro.legacy.runtime import LegacyRuntime

            done, _ = LegacyRuntime(workload.cluster, workload.ga).launch(
                [list(workload.subroutine.chains)]
            )
            workload.cluster.run(until=until)
            return done.triggered

        assert final_time(None)
        assert final_time(1e9)
