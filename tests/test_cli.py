"""Tests for the ``python -m repro`` command-line driver."""

import json
from dataclasses import replace

import pytest

import repro
from repro.__main__ import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main
from repro.obs.report import RUN_REPORT_SCHEMA_VERSION, read_jsonl


class TestCli:
    def test_info(self, capsys):
        assert main(["info", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "icsd_t2_7" in out
        assert "472 basis functions" in out

    def test_info_prints_the_knob_table(self, capsys):
        from repro.core.api import knob_table

        assert main(["info", "--scale", "tiny"]) == 0
        assert knob_table() in capsys.readouterr().out

    def test_a_sweep_whose_knob_no_code_reads_is_a_usage_error(self, capsys):
        """Refused before any cell runs: every cell would ignore it."""
        argv = ["chaos", "--scale", "tiny", "--stealing", "--codes", "original"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "RunConfig.stealing=" in captured.err
        assert "Chaos sweep" not in captured.out

    def test_equivalence_tiny(self, capsys):
        assert main(["equivalence", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "agreement" in out
        assert "reference" in out

    def test_traces_tiny(self, capsys):
        assert main(["traces", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out and "Figure 11" in out and "Figure 12/13" in out
        assert "Figure 13 (zoom" in out and "busy time shares" in out
        assert "legend:" in out
        assert "informational only" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["info", "--scale", "galactic"])

    def test_bare_scale_as_workload_is_a_usage_error(self, capsys):
        # "tiny" used to mean "t2_7:tiny" through a deprecation shim
        assert main(["info", "--workload", "tiny"]) == 2
        assert "unknown workload 'tiny'" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestReportCommand:
    def test_report_tiny_emits_both_runtimes(self, capsys, tmp_path):
        out = tmp_path / "runs.jsonl"
        assert main(["report", "--scale", "tiny", "--out", str(out)]) == EXIT_OK
        reports = read_jsonl(out)
        assert [r.runtime for r in reports] == ["legacy", "parsec"]
        for report in reports:
            assert report.schema == RUN_REPORT_SCHEMA_VERSION
            assert report.scale == "tiny"
            assert report.n_tasks > 0
            assert report.metrics["counters"], f"no counters from {report.runtime}"
            assert report.phases["execution"]["virtual_s"] > 0
            assert report.trace_stats["n_events"] > 0
        rendered = capsys.readouterr().out
        assert "Phases" in rendered and "Counters" in rendered

    def test_report_without_out_prints_jsonl(self, capsys):
        assert main(["report", "--scale", "tiny", "--runtime", "v4"]) == EXIT_OK
        lines = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("{")
        ]
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert parsed["runtime"] == "parsec"
        assert parsed["variant"] == "v4"

    def test_report_deterministic_across_invocations(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["report", "--scale", "tiny", "--out", str(a)]) == EXIT_OK
        assert main(["report", "--scale", "tiny", "--out", str(b)]) == EXIT_OK
        assert a.read_text() == b.read_text()


class TestPerfCommand:
    def test_perf_writes_baseline_and_passes_against_itself(self, capsys, tmp_path):
        out = tmp_path / "BENCH_fig9_tiny.json"
        assert (
            main(["perf", "--scale", "tiny", "--out", str(out), "--baseline", str(out)])
            == EXIT_OK
        )
        data = json.loads(out.read_text())
        assert data["schema"] == 1
        assert data["scale"] == "tiny"
        assert set(data["times"]) == {"original", "v1", "v2", "v3", "v4", "v5"}
        # comparing the run against the baseline it just wrote: no diff
        assert "identical to the baseline" in capsys.readouterr().out

    @staticmethod
    def _doctored(tmp_path, factor):
        """The committed tiny baseline with every time scaled by ``factor``."""
        from repro.experiments.perf import baseline_path

        data = json.loads(baseline_path("tiny").read_text())
        data["times"] = {
            code: {cores: t * factor for cores, t in series.items()}
            for code, series in data["times"].items()
        }
        doctored = tmp_path / f"BENCH_doctored_{factor}.json"
        doctored.write_text(json.dumps(data))
        return doctored

    def test_perf_fails_on_injected_regression(self, capsys, tmp_path):
        """Virtual times are exact: a baseline 10% slower or 10% faster
        than the fresh sweep both fail, and every cell is named."""
        out = tmp_path / "BENCH_new.json"
        for factor in (1.1, 0.9):
            doctored = self._doctored(tmp_path, factor)
            argv = ["perf", "--scale", "tiny", "--out", str(out)]
            assert main(argv + ["--baseline", str(doctored)]) == EXIT_CHECK_FAILED
            printed = capsys.readouterr().out
            assert printed.count("MISMATCH ") == 18  # 6 codes x 3 core counts
            change = "-9.1%" if factor == 1.1 else "+11.1%"
            assert f"({change})" in printed and "MISMATCH v5@4c: " in printed
            assert "identical to the baseline" not in printed

    def test_perf_threshold_is_configurable(self, capsys):
        """The gate has no tolerance: ``--threshold`` is a usage error."""
        with pytest.raises(SystemExit) as exc:
            main(["perf", "--scale", "tiny", "--threshold", "2.0"])
        assert exc.value.code == 2
        assert "--threshold" in capsys.readouterr().err

    def test_stealing_sweep_cannot_update_the_baseline(self, capsys):
        from repro.experiments.perf import baseline_path

        before = baseline_path("tiny").read_bytes()
        argv = ["perf", "--scale", "tiny", "--stealing", "--update-baseline"]
        assert main(argv) == EXIT_USAGE
        assert "cannot be a static baseline" in capsys.readouterr().err
        assert baseline_path("tiny").read_bytes() == before

    def test_committed_tiny_baseline_matches_fresh_sweep(self):
        """The checked-in BENCH file reproduces exactly (virtual times)."""
        from repro.experiments.fig9 import Fig9Result
        from repro.experiments.perf import baseline_path, run_perf

        committed = baseline_path("tiny")
        assert committed.exists(), "benchmarks/baselines/BENCH_fig9_tiny.json missing"
        old = Fig9Result.read(committed)
        new = run_perf(scale="tiny")
        assert new.times == old.times


def _failing_ablations(scale="paper"):
    """An ablation result whose priority claim fails (+5 slower than +0)."""
    from repro.experiments.ablations import AblationResult

    return AblationResult(
        scale=scale,
        priority_offsets={0: 1.0, 1: 1.0, 5: 1.5, 10: 1.0},
        segment_heights={"height-1": 1.0, "full-chain": 2.0},
        write_organization={
            "lock=4e-05s": {"single-write (v5)": 1.0, "parallel-write": 2.0}
        },
        load_balancing={
            "nxtval-stealing": 2.0,
            "static-cyclic": 2.0,
            "parsec-v4 (static nodes + dynamic cores)": 1.0,
        },
        scheduler_policies={"priority": 1.0, "fifo": 1.0, "lifo": 1.0},
        work_stealing={
            "2 nodes": {
                "static": 2.0,
                "stealing": 1.0,
                "speedup": 2.0,
                "chains_migrated": 3.0,
            }
        },
    )


class TestClaimsGate:
    """The paper-shape claims of ``traces`` and ``ablations`` decide the
    exit code at paper scale and are informational below it."""

    @pytest.fixture
    def tiny_traces(self, monkeypatch):
        """``traces`` at any --scale runs the tiny workload, whose
        numbers fail the paper's Figure 10-13 bands."""
        from repro.experiments import traces

        for attribute in ("FIG10_11", "FIG12_13"):
            declared = getattr(traces, attribute)
            tiny = lambda scale, n_nodes, cells=declared.cells: cells("tiny", 4)
            monkeypatch.setattr(traces, attribute, replace(declared, cells=tiny))

    @pytest.fixture
    def failing_ablations(self, monkeypatch):
        """``ablations`` runs no cell and reduces to a failing result."""
        from repro.experiments import ablations

        declared = replace(
            ablations.ABLATIONS,
            cells=lambda scale: [],
            reduce=lambda results, scale: _failing_ablations(scale),
        )
        monkeypatch.setattr(ablations, "ABLATIONS", declared)

    @pytest.mark.parametrize("scale, code", [("paper", 1), ("tiny", 0)])
    def test_traces_claims_gate_at_paper_scale(self, tiny_traces, capsys, scale, code):
        assert main(["traces", "--scale", scale]) == code
        out = capsys.readouterr().out
        assert "[FAIL] GEMMs > 20% of busy time" in out
        assert ("informational only" in out) == (scale == "tiny")

    @pytest.mark.parametrize("scale, code", [("paper", 1), ("tiny", 0)])
    def test_ablations_claims_gate_at_paper_scale(
        self, failing_ablations, capsys, scale, code
    ):
        assert main(["ablations", "--scale", scale]) == code
        out = capsys.readouterr().out
        assert "[FAIL] read offset +5" in out
        assert ("informational only" in out) == (scale == "tiny")

    def test_ablations_out_writes_the_printed_report(
        self, failing_ablations, capsys, tmp_path
    ):
        from repro.experiments import ablations

        out = tmp_path / "ablations.txt"
        assert main(["ablations", "--scale", "tiny", "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        report = ablations.ablations_report(_failing_ablations("tiny"))
        assert out.read_text() == report + "\n"
        assert printed.startswith(report + "\n")

    def test_min_message_savings_is_a_constant(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ablations", "--comm", "--min-message-savings", "0.2"])
        assert exc.value.code == EXIT_USAGE


class TestInterrupts:
    def test_ctrl_c_exits_130(self, monkeypatch, capsys):
        """KeyboardInterrupt anywhere in a subcommand maps to the shell
        convention 128 + SIGINT instead of a traceback."""
        import repro.__main__ as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_info", interrupted)
        assert cli.main(["info"]) == cli.EXIT_INTERRUPTED == 130
        assert "interrupted" in capsys.readouterr().err

    def test_stall_is_a_failed_run_not_a_usage_error(self, monkeypatch, capsys):
        """A simulation that quiesced unfinished exits 1 with one
        ``error:`` line (headline + fault report), never 2."""
        import repro.__main__ as cli
        from repro.sim.faults import FaultReport
        from repro.util.errors import StallError

        def stalled(args):
            raise StallError(
                "execution stalled with 3 unfinished tasks\n  node 0: alive=False",
                report=FaultReport(nodes_crashed=1),
            )

        monkeypatch.setattr(cli, "cmd_info", stalled)
        assert cli.main(["info"]) == cli.EXIT_CHECK_FAILED == 1
        err = capsys.readouterr().err
        assert err.startswith("error: execution stalled with 3 unfinished tasks")
        assert len(err.strip().splitlines()) == 1
        assert "nodes_crashed=1" in err

    def test_exit_codes_are_distinct(self):
        from repro.__main__ import (
            EXIT_CHECK_FAILED,
            EXIT_INTERRUPTED,
            EXIT_OK,
            EXIT_USAGE,
        )

        codes = {EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_INTERRUPTED}
        assert codes == {0, 1, 2, 130}


class TestServiceCli:
    def test_parse_params_json_and_strings(self):
        from repro.__main__ import _parse_params

        params = _parse_params(
            ["cores=4", "stealing=true", 'codes=["v5","v4"]', "scale=tiny"]
        )
        assert params == {
            "cores": 4,
            "stealing": True,
            "codes": ["v5", "v4"],
            "scale": "tiny",
        }

    def test_parse_params_rejects_bare_words(self):
        from repro.__main__ import _parse_params
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="key=value"):
            _parse_params(["cores"])

    def test_a_malformed_param_is_a_usage_error(self, capsys):
        from repro.__main__ import EXIT_USAGE

        argv = ["submit", "point", "--param", "bogus", "--port", "1"]
        assert main(argv) == EXIT_USAGE
        assert "--param expects key=value, got 'bogus'" in capsys.readouterr().err

    def test_a_negative_retry_budget_is_a_usage_error(self, tmp_path, capsys):
        """There is no retry budget or cell deadline to set: argparse
        refuses both flags."""
        from repro.__main__ import EXIT_USAGE

        for flag in (["--retries", "-1"], ["--cell-timeout", "1"]):
            argv = ["serve", "--port", "0", *flag]
            argv += ["--journal", str(tmp_path / "journal.jsonl")]
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == EXIT_USAGE
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {' '.join(flag)}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sizes", [["--workers", "0"], ["--jobs", "0"],
                                       ["--jobs", "-3"]],
                             ids=["workers-0", "jobs-0", "jobs-negative"])
    def test_a_size_below_one_is_a_usage_error_and_opens_no_journal(
        self, tmp_path, capsys, sizes
    ):
        from repro.__main__ import EXIT_USAGE

        argv = ["serve", "--port", "0", *sizes]
        argv += ["--journal", str(tmp_path / "journal.jsonl")]
        assert main(argv) == EXIT_USAGE
        assert "must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_submit_against_dead_daemon_fails_cleanly(self, capsys):
        # nothing listens on this port: a clean error, not a traceback
        assert (
            main(["submit", "point", "--port", "1", "--param", "cores=1"])
            == EXIT_CHECK_FAILED
        )
        assert "cannot reach daemon" in capsys.readouterr().err

    def test_status_against_dead_daemon_fails_cleanly(self, capsys):
        assert main(["status", "--port", "1"]) == EXIT_CHECK_FAILED
        assert "error" in capsys.readouterr().err
