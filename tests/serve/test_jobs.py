"""Job specs: normalization, validation, digests, cell expansion, and the
result cache (the scheduler's job table)."""

import pytest

from repro.obs.registry import MetricsRegistry
from repro.serve.journal import Journal
from repro.serve.scheduler import JobScheduler
from repro.serve.jobs import (
    JOB_KINDS,
    JobSpec,
    build_cells,
    cell_digest,
    job_digest,
    serialize_results,
)
from repro.experiments.fig9 import CODES
from repro.experiments.sweep import CellError, SweepCell
from repro.util.errors import ConfigurationError


class TestNormalize:
    def test_defaults_fill_missing_params(self):
        spec = JobSpec.normalize("point")
        assert spec.params["code"] == "v5"
        assert spec.params["scale"] == "tiny"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown job kind"):
            JobSpec.normalize("frobnicate")

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            JobSpec.normalize("point", {"corse": 4})

    def test_bad_scale_and_code_rejected(self):
        with pytest.raises(ConfigurationError, match="scale"):
            JobSpec.normalize("point", {"scale": "huge"})
        with pytest.raises(ConfigurationError, match="code"):
            JobSpec.normalize("point", {"code": "v9"})
        with pytest.raises(ConfigurationError, match="at least one code"):
            JobSpec.normalize("fig9", {"codes": []})

    def test_collections_canonicalized(self):
        a = JobSpec.normalize("fig9", {"core_counts": (1, 2)})
        b = JobSpec.normalize("fig9", {"core_counts": [1, 2]})
        assert a == b

    def test_roundtrips_through_dict(self):
        spec = JobSpec.normalize("chaos", {"codes": ["v5"], "stealing": True})
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_workload_defaults_to_t2_7(self):
        for kind in JOB_KINDS:
            assert JobSpec.normalize(kind).params["workload"] == "t2_7"

    def test_workload_tokens_accepted(self):
        spec = JobSpec.normalize("point", {"workload": "rbgs:8x8"})
        assert spec.params["workload"] == "rbgs:8x8"

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            JobSpec.normalize("point", {"workload": "frobnicate"})
        with pytest.raises(ConfigurationError, match="empty params"):
            JobSpec.normalize("fig9", {"workload": "rbgs:"})

    @pytest.mark.parametrize("kind, params, match", [
        ("point", {"seed": "abc"}, "'seed' must be int"),
        ("fig9", {"codes": 5}, "'codes' must be list"),
        ("fig9", {"core_counts": ["two"]}, "'core_counts' must be list"),
        ("point", {"stealing": "false"}, "'stealing' must be bool"),
        ("point", {"scale": ["tiny"]}, "'scale' must be str"),
        ("point", {"priority": "high"}, "'priority' must be int"),
        # int(2.7) is 2 and int(True) is 1: truncated, each would take
        # the digest of another job and be answered by its result
        ("point", {"cores": 2.7}, "'cores' must be int"),
        ("point", {"cores": True}, "'cores' must be int"),
        ("fig9", {"core_counts": [1.5]}, "'core_counts' must be list"),
        ("point", {"priority": 2.5}, "'priority' must be int"),
    ])
    def test_unconvertible_values_rejected(self, kind, params, match):
        """A value that does not convert is the caller's error, not a
        ValueError or TypeError out of the handler thread; and a bool
        must be a bool (``bool("false")`` is True)."""
        with pytest.raises(ConfigurationError, match=match):
            JobSpec.normalize(kind, params)

    @pytest.mark.parametrize("kind, params, match", [
        ("fig9", {"core_counts": [2, 0]}, "core_counts"),
        ("point", {"skew_factor": 0}, "skew_factor must be >= 1"),
        ("fig9", {"skew_period": -1}, "skew_period must be >= 0"),
        ("chaos", {"cores_per_node": 0}, "cores_per_node must be >= 1"),
    ])
    def test_out_of_range_values_rejected(self, kind, params, match):
        """Refused at submit time: in a cell, each would fail the job."""
        with pytest.raises(ConfigurationError, match=match):
            JobSpec.normalize(kind, params)

    @pytest.mark.parametrize("kind, params", [
        ("point", {"code": "original", "stealing": True}),
        ("fig9", {"codes": ["original"], "stealing": True}),
        ("chaos", {"codes": ["original"], "stealing": True}),
    ])
    def test_a_knob_none_of_the_codes_reads_is_refused(self, kind, params):
        """Refused at submit, naming the knob and its readers: every
        cell of the job would run as if it were off."""
        with pytest.raises(ConfigurationError, match=r"RunConfig\.stealing=.*parsec"):
            JobSpec.normalize(kind, params)

    def test_a_journaled_job_with_such_a_knob_still_replays(self):
        """Admitted before the refusal existed: it keeps its spec (so a
        daemon boots on its journal and a done job still answers); run
        again, it fails on the refusal."""
        d = {"kind": "chaos", "params": {"codes": ["original"], "stealing": True}}
        spec = JobSpec.from_dict(d)
        assert spec.params["stealing"] is True
        with pytest.raises(ConfigurationError, match="RunConfig.stealing"):
            build_cells(spec)

    def test_a_knob_one_of_the_codes_reads_is_accepted(self):
        params = {"codes": ["original", "v5"], "stealing": True}
        spec = JobSpec.normalize("chaos", params)
        assert len(build_cells(spec)) == 2

    def test_describe_names_the_workload(self):
        spec = JobSpec.normalize("chaos", {"workload": "rbgs"})
        assert "rbgs" in spec.describe()


class TestDigest:
    def test_equal_specs_equal_digests(self):
        a = JobSpec.normalize("point", {"cores": 2})
        b = JobSpec.normalize("point", {"cores": 2, "seed": 7})  # 7 is default
        assert job_digest(a) == job_digest(b)

    def test_any_param_changes_the_digest(self):
        base = job_digest(JobSpec.normalize("point"))
        assert job_digest(JobSpec.normalize("point", {"seed": 8})) != base
        assert job_digest(JobSpec.normalize("point", {"stealing": True})) != base
        assert job_digest(JobSpec.normalize("fig9")) != base

    def test_digest_is_stable_hex(self):
        digest = job_digest(JobSpec.normalize("point"))
        assert len(digest) == 64 and int(digest, 16) >= 0

    def test_workload_separates_digests(self):
        # same RunConfig/seed, different workload: never the same address
        for kind in JOB_KINDS:
            digests = {
                job_digest(JobSpec.normalize(kind, {"workload": wl}))
                for wl in ("t2_7", "ccsd", "rbgs")
            }
            assert len(digests) == 3


def _cell_digests(kind, params=None):
    return [cell_digest(c) for c in build_cells(JobSpec.normalize(kind, params))]


class TestCellDigest:
    """A cell's address is its function and kwargs: the same cell in
    two jobs shares it, a cell with any other parameter it reads never
    does."""

    def test_a_point_cell_is_its_fig9_cell(self):
        [point] = _cell_digests("point", {"code": "v4", "cores": 1, "seed": 9})
        grid = _cell_digests("fig9", {"seed": 9})
        assert grid.count(point) == 1
        assert grid.index(point) == 2 * list(CODES).index("v4")

    def test_the_key_is_not_part_of_it(self):
        a = SweepCell(("a",), _double, {"x": 1})
        b = SweepCell(("b", 2), _double, {"x": 1})
        assert cell_digest(a) == cell_digest(b)
        assert cell_digest(a) != cell_digest(SweepCell(("a",), _double, {"x": 2}))

    def test_the_function_is_part_of_it(self):
        assert cell_digest(SweepCell(("a",), _double, {"x": 1})) != cell_digest(
            SweepCell(("a",), _triple, {"x": 1}))

    def test_a_fig9_cell_is_one_cell_at_every_seed(self):
        """A SYNTH cell reads no seed (``test_synth_reads_no_seed``), so
        it carries none: the point at seed 8 is the grid's at seed 9."""
        [point] = _cell_digests("point", {"code": "v4", "cores": 1, "seed": 8})
        grid = _cell_digests("fig9", {"seed": 9})
        assert grid.index(point) == 2 * list(CODES).index("v4")

    def test_stealing_skew_cores_and_chaos_seeds_separate_cells(self):
        variants = [
            ("fig9", {}), ("fig9", {"stealing": True}),
            ("fig9", {"skew_factor": 3, "skew_period": 4}),
            ("fig9", {"skew_factor": 3, "skew_period": 5}),
            ("fig9", {"core_counts": [3, 4]}),
            ("chaos", {}), ("chaos", {"seed": 8}), ("chaos", {"stealing": True}),
            ("chaos", {"fault_seed": 2026}), ("chaos", {"cores_per_node": 3}),
        ]
        digests = [d for kind, p in variants for d in _cell_digests(kind, p)]
        assert len(digests) == len(set(digests))

    def test_a_kwarg_that_is_not_plain_json_is_refused(self):
        for bad in (object(), {1, 2}, float("nan")):
            with pytest.raises(ConfigurationError, match="not plain JSON"):
                cell_digest(SweepCell(("a",), _double, {"x": bad}))

    def test_digest_is_stable_hex(self):
        [digest] = _cell_digests("point")
        assert len(digest) == 64 and int(digest, 16) >= 0


def _double(x):
    return 2 * x


def _triple(x):
    return 3 * x


class TestPriority:
    def test_priority_is_split_off_the_params(self):
        spec = JobSpec.normalize("point", {"seed": 2, "priority": 5})
        assert spec.priority == 5
        assert "priority" not in spec.params  # scheduling, not content

    def test_priority_defaults_to_zero(self):
        assert JobSpec.normalize("point").priority == 0

    def test_priority_never_changes_the_digest(self):
        plain = JobSpec.normalize("point", {"seed": 2})
        hot = JobSpec.normalize("point", {"seed": 2, "priority": 9})
        assert job_digest(plain) == job_digest(hot)

    def test_priority_roundtrips_through_dict(self):
        hot = JobSpec.normalize("point", {"seed": 2, "priority": 3})
        d = hot.to_dict()
        assert d["priority"] == 3 and "priority" not in d["params"]
        back = JobSpec.from_dict(d)
        assert back == hot

    def test_zero_priority_keeps_the_v1_dict_shape(self):
        # journals written before priorities existed must replay, and
        # priority-less jobs must keep writing the same bytes they did
        d = JobSpec.normalize("point", {"seed": 2}).to_dict()
        assert "priority" not in d
        assert JobSpec.from_dict(d).priority == 0


class TestBuildCells:
    def test_fig9_grid_expands_code_x_cores(self):
        spec = JobSpec.normalize(
            "fig9", {"codes": ["v4", "v5"], "core_counts": [1, 2]}
        )
        cells = build_cells(spec)
        assert [c.key for c in cells] == [
            ("v4", 1), ("v4", 2), ("v5", 1), ("v5", 2)
        ]

    def test_point_is_one_cell(self):
        cells = build_cells(JobSpec.normalize("point"))
        assert len(cells) == 1 and cells[0].key == ("v5", 2)

    def test_chaos_one_cell_per_runner(self):
        spec = JobSpec.normalize("chaos", {"codes": ["original", "v5"]})
        cells = build_cells(spec)
        assert [c.key for c in cells] == [("original",), ("v5",)]
        assert all("stealing" in c.kwargs for c in cells)

    def test_all_kinds_build(self):
        for kind in JOB_KINDS:
            assert build_cells(JobSpec.normalize(kind))

    def test_cells_carry_the_workload(self):
        spec = JobSpec.normalize("point", {"workload": "rbgs"})
        cells = build_cells(spec)
        assert cells and all(c.kwargs["workload"] == "rbgs" for c in cells)


@pytest.fixture
def table(tmp_path):
    """A scheduler whose worker never starts: jobs are finished by hand,
    so only the job table's bookkeeping runs."""
    journal = Journal(tmp_path / "journal.jsonl")
    sched = JobScheduler(journal=journal, metrics=MetricsRegistry(enabled=True),
                         pool_jobs=1)
    yield sched
    sched.stop()
    journal.close()


class TestResultCache:
    """There is no cache beside the job table: a ``done`` job answers
    every later submission of its digest."""

    def test_miss_then_hit(self, table):
        first = table.submit("point", {"seed": 1})  # miss
        table._finish(first, "done", {"x": 1}, {})
        assert table.submit("point", {"seed": 1}) is first  # hit
        assert first.result == {"x": 1}
        assert table.overview()["cache"] == {
            "entries": 1, "hits": 1, "misses": 1, "cell_hits": 0,
        }

    def test_metrics_wiring(self, table):
        first = table.submit("point", {"seed": 1})
        table._finish(first, "done", {}, {})
        table.submit("point", {"seed": 1})
        metrics = table.metrics
        assert metrics.counter_value("serve.cache.misses") == 1.0
        assert metrics.counter_value("serve.cache.hits") == 1.0
        assert metrics.gauge_value("serve.cache.entries") == 1.0

    def test_contains_and_len(self, table):
        """``entries`` counts the ``done`` digests; a failed job's digest
        is not an entry and answers nothing."""
        done = table.submit("point", {"seed": 1})
        table._finish(done, "done", {}, {})
        failed = table.submit("point", {"seed": 2})
        table._finish(failed, "failed", {}, {
            "c0": {"kind": "exception", "message": "boom", "label": "c0",
                   "attempts": 1},
        })
        assert table.overview()["cache"]["entries"] == 1
        assert table.submit("point", {"seed": 1}) is done
        assert table.submit("point", {"seed": 2}).job_id != failed.job_id


class TestSerializeResults:
    def test_splits_values_and_errors(self):
        cells = build_cells(
            JobSpec.normalize("fig9", {"codes": ["v4", "v5"],
                                       "core_counts": [1]})
        )
        error = CellError(
            key=("v5", 1), label="v5/1", kind="poisoned",
            message="boom", attempts=2,
        )
        values, errors = serialize_results(
            cells, {("v4", 1): {"time": 1.25}, ("v5", 1): error}
        )
        assert values == {"v4/1": {"time": 1.25}}
        assert errors["v5/1"]["kind"] == "poisoned"
        assert errors["v5/1"]["attempts"] == 2

    def test_jsonable_coercion(self):
        import numpy as np

        cells = build_cells(JobSpec.normalize("point"))
        values, errors = serialize_results(
            cells, {("v5", 2): {"t": np.float64(1.5), "n": np.int64(3),
                                "seq": (1, 2)}}
        )
        assert values == {"v5/2": {"t": 1.5, "n": 3, "seq": [1, 2]}}
        assert errors == {}


class TestWhatAJobIs:
    """A job's digest is its content address in every journal: a journal
    written by an earlier build must be answered by the same job, with
    the same cells, by this one."""

    CODES = ["original", "v1", "v2", "v3", "v4", "v5"]

    @pytest.mark.parametrize(
        "kind, digest",
        [
            (
                "point",
                "8695197bcc8a0a63d5721bfbd3784c7c895c6d0c09fe6c51a554c8d741fca3cb",
            ),
            (
                "fig9",
                "3bc09eed880e6d7fd6b8e332c738f4342893687890d742a2062c3386f40ba465",
            ),
            (
                "chaos",
                "b843d37db0a0cefb57ccd0fae91c9948b8a6cb278166bf81cd1f25ef8b6fb1a1",
            ),
        ],
    )
    def test_default_spec_digests(self, kind, digest):
        assert job_digest(JobSpec.normalize(kind)) == digest

    def test_default_spec_cell_labels(self):
        def labels(kind):
            return [cell.label() for cell in build_cells(JobSpec.normalize(kind))]

        assert labels("point") == ["v5/2"]
        assert labels("fig9") == [f"{c}/{n}" for c in self.CODES for n in (1, 2)]
        assert labels("chaos") == self.CODES
