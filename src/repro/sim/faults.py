"""Deterministic fault injection: the plan, the injector, the report.

The runtimes in this package are deterministic discrete-event programs,
and the fault model keeps them that way: every injected fault is a pure
function of a *master seed* and a stable decision key, never of wall
clock or of the order in which components happen to ask. Two runs with
the same :class:`FaultPlan` therefore see the same task failures, the
same message fates, the same straggler windows, and the same crash
times — so recovery paths can be regression-tested bit for bit.

Fault classes
-------------
- **Transient task failures** — a task body attempt fails before doing
  any work (decided per ``(label, attempt)``); the scheduler pays a
  detection latency and retries, up to ``MAX_TASK_RETRIES`` times.
- **Message faults** — each NIC-crossing transmission attempt is
  assigned a fate (``drop``/``delay``/``dup``/``ok``) per
  ``(tag, seq, attempt)``. Drops are recovered by ack-timeout
  retransmission with exponential backoff; duplicates are discarded at
  the receiver by sequence number (exactly-once delivery holds).
- **Stragglers** — a node's CPU costs are scaled by a factor inside a
  virtual-time window.
- **Node crashes** — at a planned time a node's *compute* halts
  permanently. The model is compute-fail-stop: the node's memory, NIC,
  communication thread, and Global Arrays handler survive (RDMA-style),
  so in-flight protocol traffic still completes; only task execution
  stops, and the runtimes re-home that work onto survivors. A body
  running on the dead node is aborted at its next resume by the abort
  rule of :class:`~repro.sim.engine.Process`.

A plan chooses *which* faults happen (seed, probabilities, stragglers,
crashes). *How long* recovery takes is fixed: the detection latency,
the delay, the ack timeout, its ceiling and the two attempt bounds are
the module constants below, read where they are used.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable

from repro.util.backoff import capped_exponential
from repro.util.errors import ConfigurationError
from repro.util.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.cluster import Cluster
    from repro.sim.network import Message

__all__ = [
    "MAX_BACKOFF_S",
    "MAX_RETRANSMITS",
    "MAX_TASK_RETRIES",
    "MSG_DELAY_S",
    "RETRANSMIT_TIMEOUT_S",
    "TASK_FAIL_DETECT_S",
    "Straggler",
    "NodeCrash",
    "FaultPlan",
    "FaultReport",
    "FaultInjector",
]

#: a derived seed is a 63-bit integer; this maps it onto [0, 1)
_SEED_SPAN = float(2**63)

#: failed attempts of one task beyond this count succeed unconditionally
MAX_TASK_RETRIES = 3
#: virtual time to detect one transient task failure
TASK_FAIL_DETECT_S = 5.0e-6
#: extra in-flight latency of a delayed message
MSG_DELAY_S = 5.0e-6
#: base ack timeout before the first retransmission
RETRANSMIT_TIMEOUT_S = 2.0e-5
#: ceiling on one retransmit backoff, however high the attempt count
#: climbs. It is 100x the base timeout, above
#: ``RETRANSMIT_TIMEOUT_S * 2**MAX_RETRANSMITS``, so the cap only
#: changes the schedule of an attempt past the retransmit bound.
MAX_BACKOFF_S = 2.0e-3
#: drops beyond this attempt count are suppressed (bounded recovery)
MAX_RETRANSMITS = 6


@dataclass(frozen=True)
class Straggler:
    """One slow-node episode: CPU costs on ``node`` are multiplied by
    ``factor`` while the virtual clock is in ``[t_start, t_end)``."""

    node: int
    t_start: float
    t_end: float
    factor: float

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ConfigurationError(f"straggler factor must be >= 1, got {self.factor}")
        if self.t_end < self.t_start:
            raise ConfigurationError("straggler window ends before it starts")


@dataclass(frozen=True)
class NodeCrash:
    """Permanent compute failure of ``node`` at virtual time ``at``."""

    node: int
    at: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError(f"crash time must be >= 0, got {self.at}")


@dataclass(frozen=True)
class FaultPlan:
    """A seed-driven schedule of faults for one simulated run.

    Probabilistic decisions (task failures, message fates) are keyed:
    ``decision = f(master_seed, key)`` where the key names the exact
    attempt being decided. This makes the plan *stateless* — components
    may query in any order without perturbing each other's faults.
    """

    master_seed: int = 0
    #: probability that one task-body attempt fails transiently
    task_fail_prob: float = 0.0
    #: per-transmission-attempt probabilities of each message fate
    drop_prob: float = 0.0
    delay_prob: float = 0.0
    dup_prob: float = 0.0
    stragglers: tuple[Straggler, ...] = ()
    crashes: tuple[NodeCrash, ...] = ()

    def __post_init__(self) -> None:
        for name in ("task_fail_prob", "drop_prob", "delay_prob", "dup_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {p}")
        if self.drop_prob + self.delay_prob + self.dup_prob > 1.0:
            raise ConfigurationError("message fate probabilities sum past 1")

    # -- stateless seeded decisions --------------------------------------
    def _uniform(self, key: str) -> float:
        """Deterministic uniform [0, 1) draw for one decision key."""
        return derive_seed(self.master_seed, key) / _SEED_SPAN

    def task_fails(self, label: str, attempt: int) -> bool:
        """Should attempt number ``attempt`` of task ``label`` fail?"""
        if attempt >= MAX_TASK_RETRIES or self.task_fail_prob == 0.0:
            return False  # a draw in [0, 1) never falls below 0
        return self._uniform(f"taskfail:{label}:{attempt}") < self.task_fail_prob

    def message_fate(self, tag: str, seq: int, attempt: int) -> str:
        """Fate of one transmission attempt: drop | delay | dup | ok."""
        u = self._uniform(f"msg:{tag}:{seq}:{attempt}")
        if u < self.drop_prob:
            return "drop" if attempt < MAX_RETRANSMITS else "ok"
        if u < self.drop_prob + self.delay_prob:
            return "delay"
        if u < self.drop_prob + self.delay_prob + self.dup_prob:
            return "dup"
        return "ok"

    def backoff(self, attempt: int) -> float:
        """Ack-timeout before retransmission ``attempt + 1``.

        Exponential in the attempt count but clamped to
        ``MAX_BACKOFF_S`` — unbounded doubling would overflow a float
        past ~1024 attempts and, long before that, park a message for
        longer than the whole simulation horizon.
        """
        return capped_exponential(RETRANSMIT_TIMEOUT_S, attempt, MAX_BACKOFF_S)

    def describe(self) -> str:
        parts = [
            f"seed={self.master_seed}",
            f"task_fail={self.task_fail_prob:g}",
            f"drop={self.drop_prob:g}",
            f"delay={self.delay_prob:g}",
            f"dup={self.dup_prob:g}",
        ]
        for s in self.stragglers:
            parts.append(
                f"straggler(node {s.node} x{s.factor:g} "
                f"@[{s.t_start:.3g},{s.t_end:.3g}))"
            )
        for c in self.crashes:
            parts.append(f"crash(node {c.node} @{c.at:.3g})")
        return " ".join(parts)


@dataclass
class FaultReport:
    """What the injector observed and what recovery it triggered.

    The one record of a run's recovery: the runtimes count into the
    installed injector's report, and no result copies it. It covers the
    cluster's whole life — under :func:`repro.run` exactly one run; a
    cluster that runs several sections reports all of them together.
    """

    task_retries: int = 0
    messages_dropped: int = 0
    messages_delayed: int = 0
    messages_duplicated: int = 0
    retransmits: int = 0
    #: started tasks aborted by a crash and re-executed elsewhere
    tasks_recomputed: int = 0
    #: tasks re-homed off a crashed node (superset of recomputed)
    tasks_reassigned: int = 0
    #: legacy: NXTVAL tickets returned to the pool by dying ranks
    tickets_reissued: int = 0
    #: legacy: chains executed by recovery workers on survivors
    chains_recovered: int = 0
    ranks_lost: int = 0
    nodes_crashed: int = 0
    #: virtual time burned on detection latencies, retransmit backoffs,
    #: and partial executions lost to aborts
    recovery_overhead_s: float = 0.0

    @property
    def recovered(self) -> bool:
        """A fault fired and the run recovered from it: some recovery
        action (a retry, a retransmit, a re-homed or re-run task, a
        reissued ticket, a recovered chain, a crash survived) was taken."""
        return (
            self.task_retries > 0
            or self.retransmits > 0
            or self.tasks_recomputed > 0
            or self.tasks_reassigned > 0
            or self.tickets_reissued > 0
            or self.chains_recovered > 0
            or self.nodes_crashed > 0
        )

    def summary(self) -> str:
        active = [
            f"{f.name}={getattr(self, f.name):g}"
            for f in fields(FaultReport)
            if getattr(self, f.name)
        ]
        return " ".join(active) if active else "no faults"


class FaultInjector:
    """Binds a :class:`FaultPlan` to a live cluster.

    Created through :meth:`repro.sim.cluster.Cluster.install_faults`.
    Holds the run's :class:`FaultReport`, applies straggler windows to
    nodes, schedules crash events, and lets runtimes subscribe to crash
    notifications (delivered synchronously at the crash instant, after
    the node's ``alive`` flag flips).
    """

    def __init__(self, cluster: "Cluster", plan: FaultPlan) -> None:
        for s in plan.stragglers:
            if not 0 <= s.node < cluster.n_nodes:
                raise ConfigurationError(f"straggler names unknown node {s.node}")
        for c in plan.crashes:
            if not 0 <= c.node < cluster.n_nodes:
                raise ConfigurationError(f"crash names unknown node {c.node}")
        self.cluster = cluster
        self.plan = plan
        self.report = FaultReport()
        self._crash_callbacks: list[Callable] = []

    def install(self) -> None:
        """Arm the plan: straggler windows now, crashes as scheduled calls."""
        engine = self.cluster.engine
        for s in self.plan.stragglers:
            self.cluster.nodes[s.node].slow_windows.append(
                (s.t_start, s.t_end, s.factor)
            )
        for c in self.plan.crashes:
            engine.schedule(max(0.0, c.at - engine.now), self._crash, c.node)

    def on_crash(self, callback: Callable) -> None:
        """Register ``callback(node)`` to run when any node crashes."""
        self._crash_callbacks.append(callback)

    def off_crash(self, callback: Callable) -> None:
        """Unsubscribe a callback registered with :meth:`on_crash`."""
        self._crash_callbacks.remove(callback)

    def _crash(self, node_id: int) -> None:
        node = self.cluster.nodes[node_id]
        if not node.alive:
            return
        node.alive = False
        self.report.nodes_crashed += 1
        for callback in self._crash_callbacks:
            callback(node)

    def retry_gate(self, label: str):
        """Generator helper: burn the injected transient failures of the
        task (or legacy chain) ``label`` before its body starts.

        Each failed attempt costs ``TASK_FAIL_DETECT_S``; the
        decision is a pure function of (label, attempt), so retry counts
        are identical across runs with the same fault seed. Callers test
        attempt 0 synchronously (``plan.task_fails(label, 0)``) and enter
        the gate only when it fails: most attempts pass, and a pure
        decision may be asked twice.
        """
        plan = self.plan
        attempt = 0
        while plan.task_fails(label, attempt):
            self.report.task_retries += 1
            self.report.recovery_overhead_s += TASK_FAIL_DETECT_S
            yield self.cluster.engine.timeout(TASK_FAIL_DETECT_S)
            attempt += 1

    # -- bookkeeping helper used by the recovery paths -------------------

    def note_abort(self, lost_time: float) -> None:
        self.report.tasks_recomputed += 1
        self.report.recovery_overhead_s += lost_time
