"""Tests of the unified ``repro.run`` facade and the RunResult protocol."""

import dataclasses
import functools
import json

import numpy as np
import pytest

import repro
from repro.core import api
from repro.core.api import RunConfig, run
from repro.experiments.calibration import make_cluster, make_workload
from repro.experiments.chaos import default_plan
from repro.obs.report import RunReport
from repro.obs.result import RunResult
from repro.sim.faults import FaultReport
from repro.util.errors import ConfigurationError
from tests.data import regen_golden_digests as regen

TINY = RunConfig(n_nodes=4, cores_per_node=2, seed=7)


class TestFacadeDispatch:
    def test_parsec_from_scale_string(self):
        result = run("t2_7:tiny", runtime="parsec", variant="v5", config=TINY)
        assert isinstance(result, RunResult)
        assert result.runtime_name == "parsec"
        assert result.variant == "v5"
        assert result.n_tasks > 0
        assert result.execution_time > 0

    def test_legacy_and_original_are_synonyms(self):
        a = run("t2_7:tiny", runtime="legacy", config=TINY)
        b = run("t2_7:tiny", runtime="original", config=TINY)
        assert a.runtime_name == b.runtime_name == "legacy"
        assert a.execution_time == b.execution_time

    def test_dtd(self):
        result = run("t2_7:tiny", runtime="dtd", config=TINY)
        assert result.runtime_name == "dtd"
        assert result.n_tasks > 0

    def test_variant_name_as_runtime_shorthand(self):
        result = run("t2_7:tiny", runtime="v3", config=TINY)
        assert result.runtime_name == "parsec"
        assert result.variant == "v3"

    def test_prebuilt_workload_uses_its_cluster(self):
        cluster = make_cluster(2, n_nodes=4, metrics_enabled=True)
        workload = make_workload(cluster, scale="tiny")
        result = run(workload, variant=repro.V4)
        assert result.variant == "v4"
        assert result.metrics is not None

    def test_unknown_runtime_rejected(self):
        with pytest.raises(ConfigurationError):
            run("t2_7:tiny", runtime="mpi", config=TINY)


class TestOneBuildPath:
    """``run(token)``, ``build`` + ``run(object)`` and the experiments'
    ``run_point`` are one path: same machine, shape, data mode and seed
    give exactly the same simulation."""

    @pytest.mark.parametrize("token", ["t2_7:tiny", "rbgs:tiny"])
    @pytest.mark.parametrize("runtime", ["legacy", "v5", "dtd"])
    def test_token_object_and_run_point_agree(self, token, runtime):
        from repro.experiments.fig9 import run_point
        from repro.sim.cluster import DataMode

        config = RunConfig(
            n_nodes=4, cores_per_node=2, data_mode=DataMode.SYNTH, seed=7
        )
        by_token = run(token, runtime=runtime, config=config)
        workload = api.build(token, config)
        by_object = run(workload, runtime=runtime, config=config)
        assert by_object.execution_time == by_token.execution_time
        assert by_object.n_tasks == by_token.n_tasks
        wire = workload.cluster.network.remote_messages
        assert wire == by_token.metrics["counters"]["net.remote_messages"]
        name, scale = token.split(":")
        assert by_token.execution_time == run_point(
            runtime, 2, scale=scale, n_nodes=4, seed=7, workload=name
        )

    def test_calibration_helpers_delegate_to_the_builder(self):
        cluster = make_cluster(2, n_nodes=4)
        workload = make_workload(cluster, scale="tiny", workload="rbgs")
        built = api.build("rbgs:tiny", RunConfig(n_nodes=4, cores_per_node=2))
        assert workload.cluster is cluster
        assert workload.workload_id == built.workload_id == "rbgs:tiny"
        assert type(workload.ga) is type(built.ga)


class TestKnobsAreNotDropped:
    """A pre-built workload owns its GlobalArrays; a config asking for GA
    knobs it was not built with used to run half-applied, silently."""

    @pytest.mark.parametrize(
        "knob, policy",
        [
            ("coalescing", api.CoalescePolicy()),
            ("remote_cache", api.RemoteCachePolicy()),
        ],
    )
    def test_mismatched_ga_knob_is_rejected(self, knob, policy):
        plain = api.build("t2_7:tiny", TINY)
        with pytest.raises(ConfigurationError, match=f"RunConfig.{knob}"):
            run(plain, runtime="legacy", config=RunConfig(**{knob: policy}))
        # and the other direction: built with the knob, run without it
        config = RunConfig(n_nodes=4, cores_per_node=2, **{knob: policy})
        with pytest.raises(ConfigurationError, match=f"RunConfig.{knob}"):
            run(api.build("t2_7:tiny", config), runtime="legacy", config=TINY)

    def test_matching_knobs_run(self):
        config = RunConfig(
            n_nodes=4,
            cores_per_node=2,
            coalescing=api.CoalescePolicy(),
            remote_cache=api.RemoteCachePolicy(),
        )
        result = run(api.build("t2_7:tiny", config), runtime="legacy", config=config)
        assert result.execution_time > 0


@functools.lru_cache(maxsize=None)
def _ordered_output(token: str, runtime: str) -> np.ndarray:
    """Output of one 4x2 REAL run with ordered accumulation on."""
    config = RunConfig(n_nodes=4, cores_per_node=2, metrics=False)
    workload = api.build(token, config)
    workload.output.array.enable_ordered_accumulation()
    run(workload, runtime=runtime, config=config)
    return workload.output.flat_values()


class TestCrossRuntimeNumerics:
    """What holds across runtimes: legacy and v1 (one serial GEMM chain
    per output block) are bitwise equal; v2-v5 and dtd run the GEMMs in
    parallel and REDUCE the partial sums, which associates the additions
    differently — equal to 1e-13 of the output's rms (the paper's "14th
    digit"), not to the last bit. Bitwise equality is a per-runtime
    property (under faults, knobs and stealing), checked elsewhere."""

    @pytest.mark.parametrize("workload", ["t2_7:tiny", "ccsd:tiny", "rbgs:tiny"])
    @pytest.mark.parametrize("runtime", ["v1", "v2", "v3", "v4", "v5", "dtd"])
    def test_against_legacy(self, workload, runtime):
        legacy = _ordered_output(workload, "legacy")
        values = _ordered_output(workload, runtime)
        if runtime == "v1":
            assert np.array_equal(values, legacy)
        else:
            rms = float(np.sqrt(np.mean(legacy**2)))
            assert np.max(np.abs(values - legacy)) <= 1e-13 * rms


class TestRunResultProtocol:
    def test_uniform_surface_across_runtimes(self):
        for runtime in ("legacy", "parsec", "dtd"):
            result = run("t2_7:tiny", runtime=runtime, config=TINY)
            assert result.execution_time > 0
            assert result.n_tasks > 0
            assert result.runtime_name in result.summary()
            assert result.output is not None

    def test_recovery_counters_zero_without_faults(self):
        # every runtime reports the same keys: the whole FaultReport
        for runtime in ("legacy", "parsec", "dtd"):
            result = run("t2_7:tiny", runtime=runtime, config=TINY)
            assert result.report.recovery == dataclasses.asdict(FaultReport())
            assert set(result.report.recovery) == {
                spec.name for spec in dataclasses.fields(FaultReport)
            }
            assert not any(result.report.recovery.values())

    @pytest.mark.parametrize("runtime", ["legacy", "v5"])
    def test_report_recovery_is_the_clusters_fault_report(self, runtime):
        horizon = run("t2_7:tiny", runtime=runtime, config=TINY).execution_time
        workload = api.build("t2_7:tiny", TINY)
        workload.cluster.install_faults(default_plan(3, horizon, TINY.n_nodes))
        result = run(workload, runtime=runtime, config=TINY)
        report = workload.cluster.faults.report
        assert report.recovered and report.nodes_crashed == 1
        assert result.report.recovery == dataclasses.asdict(report)

    def test_no_result_copies_a_fault_count(self):
        """The cluster's FaultReport is the one record of recovery: no
        runtime's result declares a field of its own."""
        import repro.parsec.dtd  # noqa: F401  (DtdResult)

        recorded = {spec.name for spec in dataclasses.fields(FaultReport)}
        pending = RunResult.__subclasses__()
        assert {cls.__name__ for cls in pending} >= {
            "ParsecResult", "LegacyResult", "DtdResult"
        }
        while pending:
            cls = pending.pop()
            pending += cls.__subclasses__()
            assert not recorded & {f.name for f in dataclasses.fields(cls)}, cls

    def test_report_attached_when_metrics_enabled(self):
        result = run("t2_7:tiny", runtime="parsec", config=TINY)
        assert isinstance(result.report, RunReport)
        assert result.report.runtime == "parsec"
        assert result.report.phases["execution"]["virtual_s"] > 0
        assert result.report.phases["inspection"]["count"] == 1
        assert result.report.phases["ptg_build"]["count"] == 1
        assert result.report.phases["validation"]["count"] == 1
        assert result.report.metrics["counters"]
        assert result.report.recovery["task_retries"] == 0
        # one snapshot per run: the report reads the result's, minus phases
        snapshot = dict(result.metrics)
        assert result.report.phases == snapshot.pop("phases")
        assert result.report.metrics == snapshot

    def test_no_report_when_metrics_disabled(self):
        config = RunConfig(n_nodes=4, cores_per_node=2, metrics=False)
        result = run("t2_7:tiny", runtime="parsec", config=config)
        assert result.report is None
        assert result.metrics is None


class TestDeterminism:
    def test_identical_seeds_identical_reports(self):
        a = run("t2_7:tiny", runtime="parsec", config=TINY)
        b = run("t2_7:tiny", runtime="parsec", config=TINY)
        assert a.report.to_json_line() == b.report.to_json_line()

    def test_metrics_do_not_change_virtual_time(self):
        times = {}
        for enabled in (False, True):
            config = RunConfig(n_nodes=4, cores_per_node=2, metrics=enabled)
            result = run("t2_7:tiny", runtime="parsec", config=config)
            times[enabled] = result.execution_time
        assert times[False] == times[True]

    def test_legacy_metrics_do_not_change_virtual_time(self):
        times = {}
        for enabled in (False, True):
            config = RunConfig(n_nodes=4, cores_per_node=2, metrics=enabled)
            result = run("t2_7:tiny", runtime="legacy", config=config)
            times[enabled] = result.execution_time
        assert times[False] == times[True]


class TestGoldenDigests:
    """Golden digests, workload x runtime, split by portability.

    ``sim`` (virtual time, task/message counts, trace-order hash) is the
    simulator's determinism contract and is asserted bitwise on every
    host. ``energy`` goes through the host BLAS, which rounds 1-2 ulp
    differently between builds, so it is checked at 1e-13 relative —
    against the committed value and against the dense reference. See
    ``tests/data/regen_golden_digests.py``; regenerate only for an
    intentional behavioural change.
    """

    WORKLOADS = list(regen.WORKLOADS)
    RUNTIMES = list(regen.RUNTIMES)

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(regen.GOLDEN.read_text())

    def test_covers_every_workload_and_runtime(self, golden):
        assert sorted(golden) == sorted(self.WORKLOADS)
        for workload in self.WORKLOADS:
            assert sorted(golden[workload]) == sorted(self.RUNTIMES)

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("rt", RUNTIMES)
    def test_digest_bitwise_stable(self, golden, workload, rt):
        from repro.tce.reference import correlation_energy

        cell, built = regen.run_cell(workload, rt)
        assert cell["sim"] == golden[workload][rt]["sim"]
        energy = float.fromhex(cell["energy"])
        committed = float.fromhex(golden[workload][rt]["energy"])
        assert energy == pytest.approx(committed, rel=1e-13, abs=0.0)
        reference = correlation_energy(built.reference_values())
        assert energy == pytest.approx(reference, rel=1e-13, abs=0.0)

    def test_warm_memo_equals_cold(self, golden):
        """Every pair twice in one process, as experiment cells run
        (``cell_config`` over one memo): the second pass builds, draws,
        inspects and instantiates nothing — every product is a memo hit —
        and simulates exactly what the committed digests say."""
        from repro.core.inspector import InspectionCache

        memo = InspectionCache()
        for warm in (False, True):
            misses, hits = dict(memo.misses), dict(memo.hits)
            for workload in self.WORKLOADS:
                for rt in self.RUNTIMES:
                    cell, built = regen.run_cell(workload, rt, cache=memo)
                    expected = golden[workload][rt]["sim"]
                    assert cell["sim"] == expected, (warm, workload, rt)
                    energy = float.fromhex(cell["energy"])
                    committed = float.fromhex(golden[workload][rt]["energy"])
                    assert energy == pytest.approx(committed, rel=1e-13, abs=0.0)
        assert dict(memo.misses) == misses
        assert set(memo.hits) == {"structure", "draw", "chains", "template"}
        assert all(memo.hits[kind] > hits[kind] for kind in memo.hits)

    def test_warm_memo_fig9_jobs_print_the_same(self, capsys):
        """``repro fig9 --scale tiny`` on a warm process memo prints what
        the cold sweep printed, serially and from two forked pool
        processes that start with a copy of that memo."""
        from repro.__main__ import EXIT_OK, main
        from repro.core.inspector import PROCESS_MEMO

        PROCESS_MEMO._entries.clear()  # what earlier tests left
        PROCESS_MEMO.n_bytes = 0
        printed = []
        for jobs in ("1", "1", "2"):  # cold, warm, warm in two pool processes
            assert main(["fig9", "--scale", "tiny", "-j", jobs]) == EXIT_OK
            out = capsys.readouterr().out
            printed.append([line for line in out.splitlines() if "job(s)" not in line])
        assert printed[0] == printed[1] == printed[2]


class TestInspectionCache:
    def test_cached_and_uncached_runs_identical(self):
        from repro.core.api import InspectionCache

        cache = InspectionCache()
        config = RunConfig(
            n_nodes=4, cores_per_node=2, metrics=False, inspection_cache=cache
        )
        plain = RunConfig(n_nodes=4, cores_per_node=2, metrics=False)
        for rt in ("v2", "v5"):
            warm = run("t2_7:tiny", runtime=rt, config=config)  # miss, fills cache
            cached = run("t2_7:tiny", runtime=rt, config=config)  # hit
            reference = run("t2_7:tiny", runtime=rt, config=plain)
            assert warm.execution_time == reference.execution_time
            assert cached.execution_time == reference.execution_time
        assert cache.hits["chains"] >= 2
        assert cache.misses["chains"] >= 1

    def test_distinct_node_counts_do_not_collide(self):
        from repro.core.api import InspectionCache

        cache = InspectionCache()
        times = {}
        for n_nodes in (2, 4):
            config = RunConfig(
                n_nodes=n_nodes,
                cores_per_node=2,
                metrics=False,
                inspection_cache=cache,
            )
            result = run("t2_7:tiny", runtime="v5", config=config)
            times[n_nodes] = result.execution_time
        assert len(cache.keys("chains")) == 2  # one entry per node count
        assert times[2] != times[4]


class TestRemovedShims:
    def test_bare_scale_is_rejected(self):
        # the pre-SDK spelling: the workload must be named
        with pytest.raises(ConfigurationError, match="unknown workload 'tiny'"):
            run("tiny", runtime="v5", config=TINY)

    def test_explicit_token_reports_its_scale(self):
        result = run("t2_7:tiny", runtime="v5", config=TINY)
        assert result.variant == "v5"
        assert result.report.scale == "tiny"

    def test_run_over_parsec_is_gone(self):
        assert not hasattr(repro, "run_over_parsec")
