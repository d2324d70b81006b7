"""The append-only JSONL journal: jobs survive the daemon that ran them.

Every state transition of a job is one JSON line, appended and fsynced
before the transition is acknowledged anywhere else; a submission
answered by a job that is already ``done`` is no transition and writes
nothing. Replay is a pure fold over the lines, so a daemon that was
SIGKILLed mid-anything reboots into a consistent state: finished jobs
come back final (a ``done`` one answers its digest again), queued and
in-flight jobs come back as queued (at-least-once execution — results
are never duplicated because a ``job_finished`` line is the *only*
thing that marks a job done).

The writer is thread-safe: HTTP submit threads and N scheduler workers
all append through one internal lock, so sequence numbers are strictly
increasing and job ids minted by :meth:`Journal.reserve_id` never
collide — neither between concurrent threads nor across restarts.

Record schema (``schema`` = :data:`JOURNAL_SCHEMA_VERSION`)::

    {"schema": 3, "seq": <int>, "event": <type>, ...fields}

Event types and their fields:

- ``daemon_started``  — ``recovered_jobs``, ``recovered_results`` (the
  replayed ``done`` jobs), ``corrupt_lines`` (torn/corrupt lines
  skipped during boot replay)
- ``job_submitted``   — ``job_id``, ``digest``, ``spec`` (normalized)
- ``job_started``     — ``job_id``
- ``job_finished``    — ``job_id``, ``status`` (``done``/``partial``/
  ``failed``), ``result`` (cell values), ``errors`` (per-cell error
  records)
- ``job_requeued``    — ``job_id`` (graceful shutdown marked it for
  resumption; ignored by replay when the job had already finished)
- ``snapshot``        — ``jobs``, ``folded_events``: the complete fold
  of everything before it, each job record carrying its own spec and
  result (see *Compaction*)
- ``daemon_stopped``  — ``clean`` (always true; a crash writes nothing)

The reader is tolerant: a torn final line (the daemon died mid-write)
or a corrupt line is skipped **and counted** (``read_events`` returns
a :class:`JournalEvents` list whose ``corrupt_lines`` attribute holds
the skip count), never fatal — losing one unacknowledged event is the
crash semantics the at-least-once replay already absorbs. A record of
any other schema, older or newer, is refused: this daemon replays only
its own.

Compaction
----------
Every finished job appends its full result payload, so the JSONL grows
with the work done. :meth:`Journal.compact` atomically replaces the file
with one ``snapshot`` line, the job table of the :class:`RecoveredState`
fold of every line so far; later appends form the tail, and replaying
``snapshot + tail`` rebuilds the state the uncompacted journal would.
Compaction runs when the file exceeds ``compact_bytes`` (see
:meth:`Journal.maybe_compact`) and on clean shutdown.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Union

__all__ = [
    "FINAL_STATES",
    "JOURNAL_SCHEMA_VERSION",
    "Journal",
    "JournalEvents",
    "RecoveredState",
    "read_events",
    "rebuild",
]

#: Bump when the record shape changes incompatibly; a journal of any
#: other schema is refused. v3: a submission answered by a ``done`` job
#: writes nothing, and a snapshot is the plain fold of the job table.
JOURNAL_SCHEMA_VERSION = 3

#: statuses a ``job_finished`` line can carry; once a job has one,
#: nothing later in the journal changes it
FINAL_STATES = ("done", "partial", "failed")


class JournalEvents(list):
    """The intact events of a journal, in append order.

    A plain ``list`` of record dicts plus ``corrupt_lines``: how many
    torn or otherwise unparseable lines the reader skipped. The count
    is what the daemon reports in its ``daemon_started`` record and on
    ``/metrics`` — silent skipping hid real corruption before.
    """

    corrupt_lines = 0


def _max_job_id(events: Iterable[dict]) -> int:
    """The highest ``j<N>``-style job id number mentioned anywhere —
    including inside snapshot records — used to seed the id counter."""
    best = 0
    for record in events:
        ids = [record["job_id"]] if "job_id" in record else []
        if record.get("event") == "snapshot":
            ids.extend(record.get("jobs", {}))
        for job_id in ids:
            if isinstance(job_id, str) and job_id[:1] == "j":
                digits = job_id[1:]
                if digits.isdigit():
                    best = max(best, int(digits))
    return best


class Journal:
    """Append-only event store over one JSONL file.

    ``append`` assigns the next sequence number, writes the line, and
    flushes + fsyncs before returning — the journal is the source of
    truth, so nothing may be acknowledged before it is durable. All
    mutation (``append``, ``reserve_id``, ``compact``) is serialized
    on one internal lock, so concurrent submit/finish paths can never
    duplicate a seq or a job id.

    ``compact_bytes`` arms size-triggered compaction: when the file
    grows past that many bytes, :meth:`maybe_compact` folds it into a
    snapshot. ``0`` (the default) disables the size trigger; explicit
    :meth:`compact` calls (clean shutdown) work regardless.
    ``existing``: the file's :func:`read_events`, if the caller has read it.
    """

    def __init__(
        self, path: Union[str, Path], compact_bytes: int = 0,
        existing: Optional[list] = None,
    ) -> None:
        self.path = Path(path)
        self.compact_bytes = int(compact_bytes)
        self.compactions = 0
        self._lock = threading.Lock()
        existing = read_events(self.path) if existing is None else existing
        self._seq = max((e["seq"] for e in existing), default=0)
        #: id counter for :meth:`reserve_id`, seeded above both the seq
        #: high-water mark and every job id already on disk, so a
        #: restarted daemon can never re-mint an id — not even one that
        #: landed with a smaller seq than its own number because its
        #: submit thread raced others to the journal before a crash
        self._next_id = max(self._seq, _max_job_id(existing))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: Optional[object] = open(self.path, "a", encoding="utf-8")

    def reserve_id(self) -> str:
        """Atomically mint a unique job id (``j<counter>``).

        Safe to call from any thread: the counter shares the journal
        lock, starts above every seq already on disk, and only grows —
        so ids are unique across concurrent submissions *and* across
        daemon restarts.
        """
        with self._lock:
            self._next_id += 1
            return f"j{self._next_id:06d}"

    def append(self, event: str, **fields) -> dict:
        """Durably append one event; returns the full record."""
        with self._lock:
            return self._append_locked(event, **fields)

    def _append_locked(self, event: str, **fields) -> dict:
        if self._fh is None:
            raise ValueError("journal is closed")
        self._seq += 1
        record = {
            "schema": JOURNAL_SCHEMA_VERSION,
            "seq": self._seq,
            "event": event,
            **fields,
        }
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        return record

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Current on-disk size of the journal file."""
        try:
            return self.path.stat().st_size
        except OSError:  # pragma: no cover - racing an external unlink
            return 0

    def maybe_compact(self) -> bool:
        """Compact when the file has outgrown ``compact_bytes``.

        Returns True when a snapshot was written. A ``compact_bytes``
        of 0 disables the size trigger entirely.
        """
        if 0 < self.compact_bytes < self.size_bytes():
            self.compact()
            return True
        return False

    def compact(self) -> dict:
        """Fold the whole journal into one ``snapshot`` record.

        Reads every intact line, rebuilds the :class:`RecoveredState`
        fold, writes a single snapshot record carrying its job table to
        a temporary file, fsyncs it, and atomically replaces the journal
        — a crash at any point leaves either the old file or the new
        one, both of which replay to the same state. Sequence numbers
        continue past the snapshot's, so the tail appended afterwards
        stays ordered. Returns the snapshot record.
        """
        with self._lock:
            if self._fh is None:
                raise ValueError("journal is closed")
            self._fh.flush()
            os.fsync(self._fh.fileno())
            events = read_events(self.path)
            self._seq += 1
            record = {
                "schema": JOURNAL_SCHEMA_VERSION,
                "seq": self._seq,
                "event": "snapshot",
                "jobs": rebuild(events).jobs,
                "folded_events": len(events),
            }
            tmp = self.path.with_name(self.path.name + ".compact")
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            self._fh.close()
            os.replace(tmp, self.path)
            self._fh = open(self.path, "a", encoding="utf-8")
            self.compactions += 1
            return record

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_events(path: Union[str, Path]) -> JournalEvents:
    """All intact events in the journal, in append order.

    Torn or corrupt lines are skipped and counted (the returned
    :class:`JournalEvents` carries ``corrupt_lines``); an event of any
    other schema than :data:`JOURNAL_SCHEMA_VERSION` raises, so a daemon
    never misinterprets a journal it did not write.
    """
    events = JournalEvents()
    path = Path(path)
    if not path.exists():
        return events
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            events.corrupt_lines += 1  # torn write from a crash mid-append
            continue
        if not isinstance(record, dict) or "event" not in record:
            events.corrupt_lines += 1
            continue
        schema = record.get("schema", 0)
        if schema != JOURNAL_SCHEMA_VERSION:
            raise ValueError(
                f"journal {path} has schema {schema}; this daemon replays "
                f"schema {JOURNAL_SCHEMA_VERSION} only. Move the journal "
                f"aside to start with a fresh one."
            )
        events.append(record)
    return events


@dataclass
class RecoveredState:
    """What a journal replay reconstructs.

    ``jobs`` maps job id to its last-known record (``spec``,
    ``digest``, ``status``, and for finished jobs ``result``/
    ``errors``), in submission order. ``pending`` lists the job ids
    that must be re-executed — submitted or started but never finished
    (including explicitly requeued ones).
    """

    jobs: dict[str, dict] = field(default_factory=dict)
    pending: list[str] = field(default_factory=list)

    @property
    def done(self) -> list[str]:
        """The ids of the ``done`` jobs: each answers its digest."""
        return [k for k, job in self.jobs.items() if job["status"] == "done"]


def rebuild(events: list[dict]) -> RecoveredState:
    """Fold the journal into the state a rebooting daemon resumes from.

    At-least-once semantics: any job without a ``job_finished`` event
    is pending again, whether it was queued, running, or explicitly
    requeued at shutdown. Exactly-once *results*: a finished job is
    final — replay never re-runs it. A ``snapshot`` record replaces the
    running fold wholesale — it *is* the fold of everything before it —
    and the tail after it folds on top as usual.
    """
    state = RecoveredState()
    for record in events:
        event = record["event"]
        job_id = record.get("job_id")
        if event == "snapshot":
            state.jobs = {k: dict(v) for k, v in record["jobs"].items()}
        elif event == "job_submitted":
            state.jobs[job_id] = {
                "job_id": job_id,
                "spec": record["spec"],
                "digest": record["digest"],
                "status": "queued",
            }
        elif event in ("job_started", "job_requeued"):
            # a finished job is final: a stop() that raced the worker's
            # last transition may journal job_requeued after job_finished
            job = state.jobs.get(job_id)
            if job is not None and job["status"] not in FINAL_STATES:
                job["status"] = "running" if event == "job_started" else "queued"
        elif event == "job_finished" and job_id in state.jobs:
            state.jobs[job_id].update(
                status=record["status"],
                result=record["result"],
                errors=record["errors"],
            )
    state.pending = [
        job_id
        for job_id, job in state.jobs.items()
        if job["status"] in ("queued", "running")
    ]
    return state
