"""The journal: append durability, replay semantics, crash tolerance,
thread safety under concurrent submit/finish, and snapshot compaction."""

import json
import sys
import threading

import pytest

from repro.serve.journal import (
    JOURNAL_SCHEMA_VERSION,
    Journal,
    read_events,
    rebuild,
)

V = JOURNAL_SCHEMA_VERSION


def _submit(journal, job_id, digest="d1"):
    journal.append(
        "job_submitted", job_id=job_id, digest=digest,
        spec={"kind": "point", "params": {}},
    )


class TestJournal:
    def test_append_assigns_monotonic_seq(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            a = journal.append("daemon_started")
            b = journal.append("daemon_stopped", clean=True)
        assert (a["seq"], b["seq"]) == (1, 2)
        assert [e["seq"] for e in read_events(path)] == [1, 2]

    def test_seq_continues_across_reopen(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append("daemon_started")
        with Journal(path) as journal:
            assert journal.append("daemon_started")["seq"] == 2
        assert len(read_events(path)) == 2

    def test_append_after_close_rejected(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.close()
        with pytest.raises(ValueError, match="closed"):
            journal.append("daemon_started")

    def test_records_carry_schema_version(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append("daemon_started")
        (event,) = read_events(path)
        assert event["schema"] == JOURNAL_SCHEMA_VERSION

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_events(tmp_path / "nope.jsonl") == []

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append("daemon_started")
            journal.append("daemon_stopped", clean=True)
        # simulate a crash mid-append: a truncated JSON line at the end
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f'{{"schema": {V}, "seq": 3, "eve')
        events = read_events(path)
        assert [e["event"] for e in events] == ["daemon_started", "daemon_stopped"]
        # and a journal reopened over the torn file keeps appending
        with Journal(path) as journal:
            assert journal.append("daemon_started")["seq"] == 3

    def test_corrupt_middle_line_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            f'{{"schema": {V}, "seq": 1, "event": "daemon_started"}}\n'
            "not json at all\n"
            f'{{"schema": {V}, "seq": 2, "event": "daemon_stopped"}}\n'
        )
        assert [e["seq"] for e in read_events(path)] == [1, 2]

    def test_corrupt_lines_are_counted_not_just_skipped(self, tmp_path):
        """The docstring always promised "skipped and counted"; the
        count must actually exist (it feeds daemon_started and
        /metrics)."""
        path = tmp_path / "j.jsonl"
        path.write_text(
            f'{{"schema": {V}, "seq": 1, "event": "daemon_started"}}\n'
            "not json at all\n"
            '{"no_event_key": true}\n'
            f'{{"schema": {V}, "seq": 2, "event": "daemon_stopped"}}\n'
            f'{{"schema": {V}, "seq": 3, "eve'  # torn final line
        )
        events = read_events(path)
        assert [e["seq"] for e in events] == [1, 2]
        assert events.corrupt_lines == 3

    def test_intact_journal_counts_zero_corrupt_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append("daemon_started")
        assert read_events(path).corrupt_lines == 0
        assert read_events(tmp_path / "missing.jsonl").corrupt_lines == 0

    def test_future_schema_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            json.dumps(
                {"schema": JOURNAL_SCHEMA_VERSION + 1, "seq": 1,
                 "event": "daemon_started"}
            )
            + "\n"
        )
        with pytest.raises(ValueError, match="schema"):
            read_events(path)

    def test_schema_2_journal_is_refused(self, tmp_path):
        """Schema 2 wrote a record per cache hit and a deduplicated
        snapshot; this daemon replays neither and says what to do."""
        path = tmp_path / "v2.jsonl"
        lines = [
            {"schema": 2, "seq": 1, "event": "job_submitted",
             "job_id": "j000001", "digest": "d1",
             "spec": {"kind": "point", "params": {}}},
            {"schema": 2, "seq": 2, "event": "job_finished",
             "job_id": "j000001", "status": "done", "cached": True},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in lines))
        with pytest.raises(ValueError, match="schema 2.*Move the journal aside"):
            read_events(path)
        with pytest.raises(ValueError, match="schema 2"):
            Journal(path)


class TestRebuild:
    def test_unfinished_jobs_replay_as_pending(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            _submit(journal, "j1", "d1")
            journal.append("job_started", job_id="j1")
            _submit(journal, "j2", "d2")
            # crash: neither finishes
        state = rebuild(read_events(path))
        assert state.pending == ["j1", "j2"]
        # last-known status is preserved; the scheduler's recover()
        # turns pending "running" back into "queued"
        assert state.jobs["j1"]["status"] == "running"
        assert state.jobs["j2"]["status"] == "queued"
        assert state.done == []

    def test_finished_job_is_final_and_feeds_the_cache(self, tmp_path):
        """A ``done`` job comes back final and answers its digest."""
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            _submit(journal, "j1", "d1")
            journal.append("job_started", job_id="j1")
            journal.append(
                "job_finished", job_id="j1", status="done",
                result={"cell": 1}, errors={},
            )
        state = rebuild(read_events(path))
        assert state.pending == []
        assert state.done == ["j1"]
        assert state.jobs["j1"]["status"] == "done"
        assert state.jobs["j1"]["result"] == {"cell": 1}

    def test_partial_results_are_not_cached(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            _submit(journal, "j1", "d1")
            journal.append(
                "job_finished", job_id="j1", status="partial",
                result={"ok_cell": 1},
                errors={"bad_cell": {"kind": "poisoned"}},
            )
        state = rebuild(read_events(path))
        assert state.pending == []
        assert state.done == []  # partial must not satisfy future digests
        assert state.jobs["j1"]["errors"]["bad_cell"]["kind"] == "poisoned"

    def test_requeued_job_is_pending_again(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            _submit(journal, "j1", "d1")
            journal.append("job_started", job_id="j1")
            journal.append("job_requeued", job_id="j1")  # graceful stop
            journal.append("daemon_stopped", clean=True)
        state = rebuild(read_events(path))
        assert state.pending == ["j1"]

    def test_replay_is_idempotent(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            _submit(journal, "j1", "d1")
            journal.append(
                "job_finished", job_id="j1", status="done",
                result={}, errors={},
            )
            _submit(journal, "j2", "d2")
        events = read_events(path)
        assert rebuild(events).pending == rebuild(events).pending == ["j2"]


class TestJournalThreadSafety:
    """The seq-race regression: submit threads and worker threads all
    append concurrently. The pre-lock Journal bumped ``self._seq`` with
    no synchronization and minted job ids from the seq counter, so two
    racing threads could observe the same seq — duplicate sequence
    numbers on disk and colliding ``j<seq>`` ids in the job table.
    These tests fail (or error on the missing ``reserve_id``) against
    that code.
    """

    @pytest.fixture(autouse=True)
    def _aggressive_switching(self):
        """Force thread switches between bytecodes so the unlocked
        read-modify-write race, if present, actually loses."""
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(old)

    def _hammer(self, n_threads, fn):
        start = threading.Barrier(n_threads)
        errors = []

        def run(i):
            start.wait()
            try:
                fn(i)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_concurrent_appends_never_duplicate_seq(self, tmp_path):
        path = tmp_path / "j.jsonl"
        per_thread = 100
        with Journal(path) as journal:
            # half the threads play "submit", half play "finish" — the
            # exact interleaving the live daemon produces under load
            def submit_vs_finish(i):
                for k in range(per_thread):
                    if i % 2:
                        _submit(journal, f"t{i}-{k}", digest=f"d{i}-{k}")
                    else:
                        journal.append(
                            "job_finished", job_id=f"t{i}-{k}",
                            status="done", result={}, errors={},
                        )

            self._hammer(8, submit_vs_finish)
        events = read_events(path)
        seqs = [e["seq"] for e in events]
        assert len(set(seqs)) == len(seqs), "duplicate sequence numbers"
        assert sorted(seqs) == list(range(1, 8 * per_thread + 1))
        assert events.corrupt_lines == 0  # no interleaved partial writes

    def test_concurrent_reserve_id_never_collides(self, tmp_path):
        path = tmp_path / "j.jsonl"
        minted = []
        with Journal(path) as journal:

            def mint_and_submit(i):
                for _ in range(50):
                    job_id = journal.reserve_id()
                    minted.append(job_id)  # list.append is atomic
                    _submit(journal, job_id, digest=f"d-{job_id}")

            self._hammer(8, mint_and_submit)
        assert len(minted) == 400
        assert len(set(minted)) == 400, "colliding job ids"
        # and every minted id survived to disk exactly once
        on_disk = [
            e["job_id"] for e in read_events(path)
            if e["event"] == "job_submitted"
        ]
        assert sorted(on_disk) == sorted(minted)

    def test_reserved_ids_stay_unique_across_restart(self, tmp_path):
        """An id can land on disk with a smaller seq than its own
        number (its submit thread raced others to the journal); a
        rebooted journal must still never re-mint it."""
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            a = journal.reserve_id()
            b = journal.reserve_id()
            # only the *higher* id reaches the journal before the crash
            _submit(journal, b, digest="d-b")
        with Journal(path) as journal:
            c = journal.reserve_id()
        assert len({a, b, c}) == 3


class TestCompaction:
    def _write_history(self, journal):
        """A representative history: done, partial, pending, and the
        partial job's digest admitted again under a new id."""
        _submit(journal, "j000001", "d1")
        journal.append("job_started", job_id="j000001")
        journal.append(
            "job_finished", job_id="j000001", status="done",
            result={"c0": {"value": 1}}, errors={},
        )
        _submit(journal, "j000002", "d2")
        journal.append(
            "job_finished", job_id="j000002", status="partial",
            result={"c0": {"value": 2}},
            errors={"c1": {"kind": "poisoned"}},
        )
        _submit(journal, "j000003", "d3")
        journal.append("job_started", job_id="j000003")
        _submit(journal, "j000004", "d2")
        journal.append("job_started", job_id="j000004")

    def _assert_states_equal(self, a, b):
        assert a.jobs == b.jobs
        assert a.pending == b.pending

    def test_snapshot_rebuilds_identical_state(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        self._write_history(journal)
        before = rebuild(read_events(path))
        size_before = path.stat().st_size
        journal.compact()
        after_events = read_events(path)
        self._assert_states_equal(before, rebuild(after_events))
        assert [e["event"] for e in after_events] == ["snapshot"]
        assert path.stat().st_size < size_before
        assert journal.compactions == 1
        journal.close()

    def test_seq_continues_past_the_snapshot(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            self._write_history(journal)  # seqs 1..9
            journal.compact()  # snapshot takes seq 10
            tail = journal.append("daemon_stopped", clean=True)
        events = read_events(path)
        assert [e["seq"] for e in events] == [10, 11]
        assert tail["seq"] == 11

    def test_snapshot_plus_tail_equals_uncompacted(self, tmp_path):
        """The headline equivalence: compact mid-history, keep
        appending, and the fold must match a journal that never
        compacted — byte-identical RecoveredState."""
        plain, compacted = tmp_path / "plain.jsonl", tmp_path / "c.jsonl"

        def tail(journal):
            _submit(journal, "j000005", "d5")
            journal.append("job_started", job_id="j000005")
            journal.append(
                "job_finished", job_id="j000005", status="done",
                result={"c0": {"value": 5}}, errors={},
            )
            journal.append("job_requeued", job_id="j000003")

        with Journal(plain) as journal:
            self._write_history(journal)
            tail(journal)
        with Journal(compacted) as journal:
            self._write_history(journal)
            journal.compact()
            tail(journal)

        self._assert_states_equal(
            rebuild(read_events(plain)), rebuild(read_events(compacted))
        )

    def test_corrupt_line_then_snapshot_then_tail(self, tmp_path):
        """Satellite acceptance: interleaved events, a mid-file corrupt
        line, and a snapshot+tail still rebuild the same state."""
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        self._write_history(journal)
        journal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("garbage that is not json\n")
        _submit_tail = lambda j: _submit(j, "j000005", "d5")  # noqa: E731
        journal = Journal(path)
        _submit_tail(journal)
        before = rebuild(read_events(path))
        journal.compact()
        after = rebuild(read_events(path))
        self._assert_states_equal(before, after)
        # compaction consumed the corrupt line; the new file is clean
        assert read_events(path).corrupt_lines == 0
        journal.close()

    def test_snapshot_is_the_plain_fold(self, tmp_path):
        """One record per job, each carrying its own spec and, once
        finished, its own result: no side tables to re-attach."""
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            self._write_history(journal)
            snapshot = journal.compact()
        assert set(snapshot) == {
            "schema", "seq", "event", "jobs", "folded_events"}
        assert snapshot["folded_events"] == 9
        jobs = snapshot["jobs"]
        assert list(jobs) == ["j000001", "j000002", "j000003", "j000004"]
        assert all(job["spec"] == {"kind": "point", "params": {}}
                   for job in jobs.values())
        assert jobs["j000001"]["result"] == {"c0": {"value": 1}}
        assert jobs["j000002"]["errors"] == {"c1": {"kind": "poisoned"}}
        assert "result" not in jobs["j000004"]

    def test_maybe_compact_honors_the_size_trigger(self, tmp_path):
        path = tmp_path / "j.jsonl"
        # above the ~640-byte snapshot, below the ~1000-byte history
        with Journal(path, compact_bytes=900) as journal:
            assert journal.maybe_compact() is False  # empty file
            self._write_history(journal)
            assert path.stat().st_size > 900
            assert journal.maybe_compact() is True
            assert journal.compactions == 1
            assert journal.maybe_compact() is False  # back under threshold

    def test_zero_compact_bytes_disables_the_trigger(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            self._write_history(journal)
            assert journal.maybe_compact() is False
            assert journal.compactions == 0
