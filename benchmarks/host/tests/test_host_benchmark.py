"""Self-test of the host-cost benchmark, at the ``smoke`` size.

Run explicitly (it is not on tier-1's ``testpaths``)::

    PYTHONPATH=src python -m pytest benchmarks/host/tests -q

It checks the harness, not the simulator: names agree with
``BENCHMARK.json``, a wrong ``expected.json`` entry is caught, the span
tree is well-formed, and simulated values repeat exactly.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.host import catalogue, checks
from benchmarks.host.spans import self_times

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_cli(*args: str, out: Path) -> tuple[int, dict, str]:
    """``run --size smoke`` through the driver's entry point."""
    done = subprocess.run(
        [sys.executable, "benchmarks/host/run.py", "--size", "smoke"]
        + ["--out", str(out), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    document = json.loads(out.read_text()) if out.exists() else {}
    return done.returncode, document, done.stdout


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> tuple[dict, str]:
    """All five workloads, untraced and traced, once."""
    out = tmp_path_factory.mktemp("host") / "smoke.json"
    code, document, stdout = run_cli("--traced", out=out)
    assert code == 0, stdout[-2000:]
    return document, stdout


def test_manifest_is_benchmark_json():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == catalogue.manifest()


def test_names_are_well_formed_and_unique():
    manifest = catalogue.manifest()
    names = [w["name"] for w in manifest["workloads"]]
    names += [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert "setup_s" in {m["name"] for m in manifest["end_to_end"]}


def test_printed_names_equal_manifest_names(smoke):
    document, stdout = smoke
    manifest = catalogue.manifest()
    assert [e["workload"] for e in document["workloads"]] == [
        w["name"] for w in manifest["workloads"]
    ]
    end_to_end = {m["name"] for m in manifest["end_to_end"]}
    per_layer = {m["name"] for m in manifest["per_layer"]}
    seen_layer: set[str] = set()
    for entry in document["workloads"]:
        assert set(entry["end_to_end"]) == end_to_end
        seen_layer |= set(entry["scoped"]) | set(entry["per_layer"])
    # every per-layer metric is measured by at least one workload, and
    # nothing is measured that the manifest does not name
    assert seen_layer == per_layer
    for name in end_to_end | per_layer:
        assert re.search(rf"^{re.escape(name)}\s", stdout, re.M), name


def test_driver_line_carries_exactly_the_manifest_metrics(tmp_path):
    manifest = catalogue.manifest()
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        code, _, stdout = run_cli(
            "--workload", "fig9_paper_synth", "--trace", trace, out=tmp_path / "o.json"
        )
        assert code == 0
        line = json.loads(stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert list(line["metrics"]) == [m["name"] for m in manifest[group]]
        units = {m["name"]: m["unit"] for m in manifest[group]}
        assert all(v["unit"] == units[k] for k, v in line["metrics"].items())


def test_corrupted_expected_entry_fails_the_run(tmp_path):
    expected = checks.load_expected()
    table = expected["smoke"]["fig9_paper_synth"]
    table["v5@2"]["execution_time"] *= 1.0000001
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps(expected))
    code, document, _ = run_cli(
        "--workload", "fig9_paper_synth", "--expected", str(wrong),
        out=tmp_path / "o.json",
    )
    assert code != 0
    assert document["workloads"][0]["scoped"]["failed_ops_frac"] > 0


def test_span_trees_are_well_formed(smoke):
    document, _ = smoke
    for entry in document["workloads"]:
        traced = entry["traced"]
        spans = json.loads(Path(traced["trace_file"]).read_text())["spans"]
        assert [s["id"] for s in spans] == list(range(len(spans)))
        for span in spans:
            assert span["end"] >= span["start"]
            if span["parent"] is None:
                assert span["id"] == 0
                continue
            parent = spans[span["parent"]]
            assert span["parent"] < span["id"]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
        own = self_times(spans)
        assert min(own) >= -1e-9
        # self times telescope: they sum to the root, or, where sibling
        # spans overlap (two clients), to each client's lane
        lanes = [s for s in spans if s["name"] == "serve.client"] or [spans[0]]
        for lane in lanes:
            members = {lane["id"]}
            for span in spans:
                if span["parent"] in members:
                    members.add(span["id"])
            total = sum(own[i] for i in members)
            assert total == pytest.approx(lane["end"] - lane["start"], rel=0.01)


def test_simulated_values_repeat_exactly(smoke, tmp_path):
    first, _ = smoke
    code, second, _ = run_cli("--traced", out=tmp_path / "again.json")
    assert code == 0
    exact = [m.name for m in catalogue.SCOPED if m.bound == 0]
    exact += [m.name for m in catalogue.PER_LAYER if m.kind in ("count", "exact")]
    for a, b in zip(first["workloads"], second["workloads"]):
        for name in exact:
            merged_a = {**a["scoped"], **a["per_layer"]}
            merged_b = {**b["scoped"], **b["per_layer"]}
            assert merged_a.get(name) == merged_b.get(name), (a["workload"], name)
        for op_a, op_b in zip(a["untraced"]["ops"], b["untraced"]["ops"]):
            if a["workload"] != "serve_mixed":  # job order follows timing
                assert op_a["id"] == op_b["id"]
                assert op_a["virt"] == op_b["virt"]
