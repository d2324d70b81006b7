"""Tests of the structured RunReport and its JSONL serialization."""

from repro.obs.report import RUN_REPORT_SCHEMA_VERSION, RunReport, read_jsonl, write_jsonl


def sample_report(**overrides) -> RunReport:
    kwargs = dict(
        runtime="parsec",
        workload="icsd_t2_7",
        execution_time=0.125,
        n_tasks=510,
        variant="v5",
        scale="tiny",
        n_nodes=4,
        cores_per_node=2,
        data_mode="real",
        seed=7,
        phases={"execution": {"virtual_s": 0.125, "count": 1}},
        metrics={"counters": {"net.bytes": 1024.0}, "gauges": {}, "histograms": {}},
        trace_stats={"n_events": 510},
        recovery={"task_retries": 0},
    )
    kwargs.update(overrides)
    return RunReport(**kwargs)


class TestRunReport:
    def test_schema_version_stamped(self):
        assert sample_report().schema == RUN_REPORT_SCHEMA_VERSION

    def test_json_line_round_trip(self):
        report = sample_report()
        line = report.to_json_line()
        assert "\n" not in line
        back = RunReport.from_json_line(line)
        assert back == report

    def test_json_line_is_deterministic(self):
        assert sample_report().to_json_line() == sample_report().to_json_line()

    def test_from_dict_ignores_unknown_keys(self):
        d = sample_report().to_dict()
        d["added_in_schema_99"] = True
        back = RunReport.from_dict(d)
        assert back == sample_report()

    def test_defaults_are_independent_instances(self):
        a, b = RunReport("parsec", "w", 1.0, 2), RunReport("legacy", "w", 1.0, 2)
        a.extra["k"] = "v"
        assert b.extra == {}


class TestJsonl:
    def test_write_then_read(self, tmp_path):
        reports = [sample_report(), sample_report(runtime="legacy", variant=None)]
        path = write_jsonl(reports, tmp_path / "runs.jsonl")
        back = read_jsonl(path)
        assert back == reports

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(sample_report().to_json_line() + "\n\n\n")
        assert len(read_jsonl(path)) == 1
