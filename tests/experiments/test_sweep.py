"""Tests for the multi-process sweep executor and the grid bugfixes.

The headline guarantee under test: a parallel sweep (``jobs > 1``) is
**byte-identical** to the serial one — same ``times`` dicts, same BENCH
JSON bytes — because every cell is an independent deterministic
simulation and the merge is keyed, not completion-ordered.
"""

import json

import pytest

from repro.core import api
from repro.experiments.fig9 import Fig9Result, fig9_shape_checks, run_fig9
from repro.experiments.perf import (
    BENCH_SCHEMA_VERSION,
    PERF_PRESETS,
    baseline_mismatches,
    baseline_path,
    run_perf,
)
from repro.experiments.sweep import SweepCell, SweepExecutor, SweepStats
from repro.util.errors import ConfigurationError


# module-level so the process pool can pickle them by reference
def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"cell {x} exploded")


class TestSweepExecutor:
    def test_serial_and_parallel_merge_identically(self):
        cells = [SweepCell(key=(i,), fn=_square, kwargs={"x": i}) for i in range(8)]
        serial, _ = SweepExecutor(jobs=1).run(cells)
        parallel, _ = SweepExecutor(jobs=3).run(cells)
        assert serial == parallel
        # merge order is submission order, independent of completion order
        assert list(parallel) == [(i,) for i in range(8)]

    def test_duplicate_keys_rejected(self):
        cells = [
            SweepCell(key=("a",), fn=_square, kwargs={"x": 1}),
            SweepCell(key=("a",), fn=_square, kwargs={"x": 2}),
        ]
        with pytest.raises(ConfigurationError, match="duplicate"):
            SweepExecutor(jobs=1).run(cells)

    def test_worker_exception_propagates(self):
        cells = [SweepCell(key=(1,), fn=_square, kwargs={"x": 1}),
                 SweepCell(key=(2,), fn=_boom, kwargs={"x": 2})]
        with pytest.raises(ValueError, match="exploded"):
            SweepExecutor(jobs=2).run(cells)

    def test_jobs_zero_means_cpu_count(self):
        assert SweepExecutor(jobs=0).jobs >= 1
        assert SweepExecutor(jobs=None).jobs >= 1

    def test_progress_lines_and_stats(self):
        lines = []
        cells = [SweepCell(key=(i,), fn=_square, kwargs={"x": i}) for i in range(3)]
        _, stats = SweepExecutor(jobs=1, progress=lines.append, label="t").run(cells)
        assert len(lines) == 3
        assert all("t" in line and "done in" in line for line in lines)
        assert stats.n_cells == 3
        assert set(stats.cell_wall_s) == {"0", "1", "2"}
        assert "3 cells" in stats.summary()

    def test_stats_to_report_is_obs_run_report(self):
        stats = SweepStats(label="x", jobs=2, n_cells=4, wall_s=1.5,
                           cell_wall_s={"a": 0.5, "b": 1.0})
        report = stats.to_report()
        assert report.runtime == "sweep"
        assert report.workload == "x"
        assert report.extra["jobs"] == 2
        assert report.extra["wall_s"] == 1.5
        assert report.extra["cell_wall_s"] == {"a": 0.5, "b": 1.0}
        # serializes like any other obs report
        assert json.loads(report.to_json_line())["runtime"] == "sweep"


class TestParallelIdentity:
    """jobs>1 must be byte-identical to the serial sweep."""

    def test_perf_tiny_times_and_json_bitwise_identical(self, tmp_path):
        serial = run_perf(scale="tiny", jobs=1)
        parallel = run_perf(scale="tiny", jobs=2)
        assert serial.times == parallel.times
        a = serial.write(tmp_path / "serial.json")
        b = parallel.write(tmp_path / "parallel.json")
        assert a.read_bytes() == b.read_bytes()

    def test_fig9_parallel_matches_serial(self):
        serial = run_fig9(scale="tiny", core_counts=(1, 2), n_nodes=4, jobs=1)
        parallel = run_fig9(scale="tiny", core_counts=(1, 2), n_nodes=4, jobs=2)
        assert serial.times == parallel.times

    def test_equivalence_parallel_matches_serial(self):
        from repro.experiments.equivalence import run_equivalence

        serial = run_equivalence(scale="tiny", n_nodes=4, jobs=1)
        parallel = run_equivalence(scale="tiny", n_nodes=4, jobs=2)
        assert serial.energies == parallel.energies


class TestPrecomputedInspection:
    def test_precompute_fills_one_entry_per_height(self):
        cache = api.precompute_inspection("tiny", 4, codes=("v1", "v2", "v5"))
        # the structure, then v1 is height None, v2/v5 share height 1
        assert cache.keys("structure") == [("t2_7:tiny", 1, 0)]
        assert len(cache.keys("chains")) == 2
        assert dict(cache.misses) == {"structure": 1, "chains": 2}

    def test_non_parsec_codes_are_skipped(self):
        cache = api.precompute_inspection("tiny", 4, codes=("original", "legacy"))
        assert len(cache) == 0

    def test_cache_pickles(self):
        import pickle

        cache = api.precompute_inspection("tiny", 4, codes=("v5",))
        clone = pickle.loads(pickle.dumps(cache))
        assert list(clone._entries) == list(cache._entries)
        assert len(clone) == 2  # the structure and its chains


class TestCellsCarryNoCache:
    """A cell is plain parameters: the process that runs it memoises the
    inspection (2.3 MB of pickled cache per ``paper`` cell before)."""

    def test_every_pickled_cell_is_under_2kb(self):
        import pickle

        from repro.experiments.chaos import chaos_cells
        from repro.experiments.fig9 import CODES, fig9_cells

        cells = fig9_cells(CODES, (1, 3, 7, 11, 15), scale="paper", seed=11)
        cells += chaos_cells(CODES, scale="small", n_nodes=8, stealing=True)
        assert len(cells) == 36
        for cell in cells:
            assert len(pickle.dumps(cell)) < 2048, cell.label()
            assert not {"cache", "inspection_cache"} & set(cell.kwargs)

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("point", {"code": "v5"}),
            ("fig9", {"codes": ["original", "v1", "v4"], "core_counts": [1, 2]}),
            ("chaos", {"codes": ["original", "v5"], "workload": "rbgs"}),
        ],
    )
    def test_a_job_answers_the_same_bytes_on_a_cold_and_a_warm_memo(
        self, kind, params
    ):
        from repro.core.inspector import PROCESS_MEMO
        from repro.serve.jobs import JobSpec, build_cells, serialize_results

        def payload():
            cells = build_cells(JobSpec.normalize(kind, params))
            results, _ = SweepExecutor(jobs=1).run(cells)
            return json.dumps(serialize_results(cells, results), sort_keys=True)

        PROCESS_MEMO._entries.clear()
        PROCESS_MEMO.n_bytes = 0
        misses = sum(PROCESS_MEMO.misses.values())
        cold = payload()
        # the cells built and inspected, here
        assert sum(PROCESS_MEMO.misses.values()) > misses
        misses, hits = dict(PROCESS_MEMO.misses), sum(PROCESS_MEMO.hits.values())
        warm = payload()
        assert dict(PROCESS_MEMO.misses) == misses
        assert sum(PROCESS_MEMO.hits.values()) > hits
        assert cold == warm


class TestShapeChecksOnSmallGrids:
    """The paper's probe points (3, 7, 11) may be absent from the grid."""

    @pytest.fixture(scope="class")
    def tiny_result(self):
        return run_fig9(scale="tiny", core_counts=(1, 2, 4), n_nodes=4)

    def test_shape_checks_do_not_raise_on_tiny_grid(self, tiny_result):
        checks = fig9_shape_checks(tiny_result)
        assert len(checks) == 10

    def test_out_of_grid_checks_marked_skipped(self, tiny_result):
        checks = fig9_shape_checks(tiny_result)
        skipped = [c for c in checks if c.skipped]
        assert skipped, "tiny grid lacks 3/7/11 - some checks must skip"
        for check in skipped:
            assert check.passed  # skips never fail the run
            assert check.detail.startswith("skipped:")
        by_name = {c.name: c for c in checks}
        assert by_name["original speedup at 3 cores/node ~2.35x"].skipped
        assert by_name["original plateaus by 7 cores/node"].skipped
        assert by_name["v2-v5 keep improving to 15; v1 largely stops"].skipped
        # claims probing only the grid's own points still evaluate
        assert not by_name["v5 fastest variant at 15 (within 2% tie tolerance)"].skipped

    def test_missing_codes_marked_skipped(self):
        times = {
            "original": {1: 10.0, 2: 6.0},
            "v5": {1: 9.0, 2: 4.0},
        }
        result = Fig9Result(times, (1, 2), "tiny", 4)
        checks = fig9_shape_checks(result)
        assert len(checks) == 10
        by_name = {c.name: c for c in checks}
        v1_check = by_name["v1 slowest variant at 15; v2 second slowest"]
        assert v1_check.skipped and "lacks" in v1_check.detail

    def test_summary_table_on_tiny_grid(self, tiny_result):
        table = tiny_result.summary_table()
        assert "n/a (grid lacks 3 cores/node)" in table
        assert "n/a (grid lacks 7 cores/node)" in table
        assert "best original" in table

    def test_paper_grid_has_no_skips(self):
        # synthetic paper-shaped data: all ten claims must evaluate
        times = {
            "original": {1: 91.4, 3: 38.3, 7: 28.3, 11: 27.9, 15: 28.7},
            "v1": {1: 82.2, 3: 29.5, 7: 17.4, 11: 14.1, 15: 13.1},
            "v2": {1: 85.6, 3: 30.6, 7: 16.2, 11: 12.2, 15: 10.4},
            "v3": {1: 85.6, 3: 28.6, 7: 12.6, 11: 10.0, 15: 8.67},
            "v4": {1: 85.6, 3: 28.6, 7: 12.6, 11: 10.0, 15: 8.66},
            "v5": {1: 85.8, 3: 28.7, 7: 12.5, 11: 10.0, 15: 8.66},
        }
        result = Fig9Result(times, (1, 3, 7, 11, 15), "paper", 32)
        checks = fig9_shape_checks(result)
        assert not any(c.skipped for c in checks)
        assert all(c.passed for c in checks)


class TestPerfScaleValidation:
    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigurationError) as exc:
            run_perf(scale="papr")
        message = str(exc.value)
        for scale in PERF_PRESETS:
            assert scale in message

    def test_known_scales_still_resolve(self):
        # presets only - no sweep is run here
        assert set(PERF_PRESETS) == {"tiny", "small", "paper", "full"}

    def test_cli_rejects_unknown_scale(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["perf", "--scale", "papr"])
        assert exc.value.code == 2


class TestBenchSchemaValidation:
    def _payload(self, **overrides):
        payload = {
            "schema": BENCH_SCHEMA_VERSION,
            "scale": "tiny",
            "n_nodes": 4,
            "core_counts": [1, 2],
            "times": {"v5": {"1": 2.0, "2": 1.0}},
        }
        payload.update(overrides)
        return payload

    def test_round_trip_ok(self):
        baseline = Fig9Result.from_dict(self._payload())
        assert baseline.times["v5"][1] == 2.0

    def test_future_schema_rejected(self):
        with pytest.raises(ConfigurationError, match="schema"):
            Fig9Result.from_dict(self._payload(schema=BENCH_SCHEMA_VERSION + 1))

    def test_missing_schema_rejected(self):
        payload = self._payload()
        del payload["schema"]
        with pytest.raises(ConfigurationError, match="schema"):
            Fig9Result.from_dict(payload)

    def test_baselines_live_in_the_repository(self, tmp_path):
        assert baseline_path("tiny").name == "BENCH_fig9_tiny.json"
        assert baseline_path("paper", workload="rbgs").name == (
            "BENCH_fig9_rbgs_paper.json"
        )
        with pytest.raises(TypeError, match="root"):
            baseline_path("tiny", root=tmp_path)

    def test_read_rejects_mismatched_file(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps(self._payload(schema=99)))
        with pytest.raises(ConfigurationError, match="schema=99"):
            Fig9Result.read(path)


class TestMissingCellReporting:
    """The perf gate passes only on an equal grid: a cell that moved, went
    missing or is new is named, and each fails the gate."""

    def _baseline(self, times):
        return Fig9Result(times, (1, 2), "tiny", 4)

    def test_vanished_core_count_reported(self):
        old = self._baseline({"v5": {1: 2.0, 2: 1.0}})
        new = self._baseline({"v5": {1: 2.0}})
        assert baseline_mismatches(old, new) == ["v5@2c: missing from the fresh sweep"]

    def test_vanished_code_reported_once(self):
        old = self._baseline({"v4": {1: 2.0, 2: 1.0}, "v5": {1: 2.0}})
        new = self._baseline({"v5": {1: 2.0}})
        assert baseline_mismatches(old, new) == [
            "v4: series missing from the fresh sweep"
        ]

    def test_regressions_and_missing_together(self):
        old = self._baseline({"v5": {1: 1.0, 2: 1.0}})
        new = self._baseline({"v5": {1: 2.0}})
        assert baseline_mismatches(old, new) == [
            "v5@1c: 1.0s -> 2.0s (+100.0%)",
            "v5@2c: missing from the fresh sweep",
        ]
        # equal grids, and only equal grids, pass
        assert baseline_mismatches(old, old) == []

    def test_grown_grid_is_not_missing(self):
        """A grown grid is not *missing* anything, but it fails too."""
        old = self._baseline({"v5": {1: 2.0}})
        new = self._baseline({"v5": {1: 2.0, 2: 1.0}, "v4": {1: 2.0}})
        assert baseline_mismatches(old, new) == [
            "v4: series not in the baseline",
            "v5@2c: not in the baseline",
        ]

    def test_cli_warns_on_missing_cells(self, capsys, tmp_path):
        from repro.__main__ import EXIT_CHECK_FAILED, main

        data = json.loads(baseline_path("tiny").read_text())
        # fatten the baseline with a cell the fresh sweep will not have
        data["times"]["v5"]["99"] = 1.0
        doctored = tmp_path / "BENCH_doctored.json"
        doctored.write_text(json.dumps(data))
        out = tmp_path / "BENCH_new.json"
        argv = ["perf", "--scale", "tiny", "--out", str(out)]
        assert main(argv + ["--baseline", str(doctored)]) == EXIT_CHECK_FAILED
        printed = capsys.readouterr().out
        assert "MISMATCH v5@99c: missing from the fresh sweep" in printed
        assert printed.count("MISMATCH") == 1


class TestCliJobs:
    def test_perf_parallel_cli_matches_committed_baseline(self, tmp_path, capsys):
        from repro.__main__ import EXIT_OK, main

        out = tmp_path / "BENCH_fig9_tiny.json"
        assert main(["perf", "--scale", "tiny", "--out", str(out), "-j", "2"]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "identical to the baseline" in printed
        assert "2 job(s)" in printed
        committed = json.loads(baseline_path("tiny").read_text())
        fresh = json.loads(out.read_text())
        assert fresh == committed

    def test_fig9_two_jobs_print_what_one_job_prints(self, capsys):
        """Pool processes inspect for themselves; the tables, chart and
        checks are the serial sweep's, byte for byte."""
        from repro.__main__ import EXIT_OK, main

        printed = {}
        for jobs in ("1", "2"):
            assert main(["fig9", "--scale", "tiny", "-j", jobs]) == EXIT_OK
            out = capsys.readouterr().out
            # the one host-time line: "sweep ...: N cells, J job(s), wall ..."
            body = [line for line in out.splitlines() if "job(s)" not in line]
            assert len(body) == len(out.splitlines()) - 1
            printed[jobs] = "\n".join(body)
        assert printed["1"] == printed["2"]
        assert "Figure 9 reproduction" in printed["1"]
