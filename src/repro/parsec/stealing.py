"""Inter-node work stealing on top of the static round-robin owner map.

Section IV-D places every chain on ``chain_id % n_nodes`` at inspection
time; the legacy CGP path it replaced got load balance "for free" from
NXTVAL work stealing. This module retrofits victim/thief stealing onto
the PTG runtime so the cost of static placement under imbalance can be
both measured and recovered:

- Each node has a :class:`StealAgent`. When a worker finds its ready
  queue empty it notifies the agent, which starts at most one *episode*
  at a time: a deterministic round-robin rotation over the other nodes,
  one simulated ``STEAL_REQ`` per victim, bounded by
  ``MAX_ROUNDS`` full rotations.
- The victim's comm thread answers synchronously from the shared
  :class:`StealCoordinator`: if it holds at least
  ``MIN_VICTIM_BACKLOG`` steal-eligible chains *and* granting still
  leaves every victim core ``MIN_BACKLOG_RATIO`` times the granted
  work, it migrates the heaviest eligible
  one(s) (the node column is rewritten for every chain row) and replies
  ``STEAL_GRANT`` with the ready task rows and the bytes of any operand
  data already resident on the victim; otherwise ``STEAL_DENY``.
- A chain is *steal-eligible* only while its remainder is untouched:
  every not-yet-done migratable task (DFILL/GEMM/REDUCE/SORT/SORT_I)
  still lives on the victim, none is started or claimed by a worker,
  and at least one is ready to run. Done tasks stay where they ran —
  their outputs were already delivered to the (global) task rows,
  so only the remaining suffix migrates and any operand bytes already
  resident on the victim ride the GRANT. READ_A/READ_B stay on the GA
  owner nodes
  and WRITE_C stays on the output owner, so the thief pulls tiles
  through the existing READ machinery (the comm thread re-resolves the
  consumer's node at send time) and the accumulation site never moves —
  with ordered tagged accumulation the final Global Array contents are
  bitwise identical with stealing on or off.

Determinism: every decision is a pure function of simulation state at a
DES event (no timers, no host randomness), victims rotate in node-id
order, chains are selected by (flops desc, chain_id asc), and all
messages ride the simulated network — so a seed reproduces the exact
same steals, and virtual timings are unchanged when stealing is off.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.parsec.ptg import CLAIMED, DONE, STARTED
from repro.sim.trace import TaskCategory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parsec.ptg import TaskGraph
    from repro.parsec.runtime import ParsecRuntime

__all__ = ["MIGRATABLE_CLASSES", "StealPolicy", "StealAgent", "StealCoordinator"]

#: task classes that travel with a stolen chain; READ_* stay on the GA
#: owners and WRITE_* on the output owners (the determinism argument)
MIGRATABLE_CLASSES = frozenset({"DFILL", "GEMM", "REDUCE", "SORT", "SORT_I"})


# The protocol's thresholds (all deterministic). Constants, not knobs:
# no caller, test or benchmark has ever set one (DESIGN.md section 9).
#: a victim only grants while it still holds at least this many
#: eligible chains — a hard floor under the work-based guard below
MIN_VICTIM_BACKLOG = 2
#: after granting a chain, each victim core must retain at least this
#: multiple of the granted chain's flops in eligible backlog. This is
#: what makes end-game steals on a *balanced* workload (which cost more
#: in grant latency than they recover) die out, while a node drowning
#: in a few huge chains still sheds them.
MIN_BACKLOG_RATIO = 1.5
#: full victim rotations one idle episode may attempt before parking
#: until the next idle event
MAX_ROUNDS = 2
#: a chain migrates only when its remaining GEMM seconds exceed this
#: multiple of the estimated cost of moving its resident operand bytes
#: (they ride the GRANT message) — in comm-bound regimes stealing
#: self-disables instead of adding traffic to an already-saturated fabric
MIN_BENEFIT_RATIO = 2.0
#: after an episode where every victim denied, an idle node waits this
#: long (virtual) before probing again — a fully-denied moment usually
#: means the victims' frontiers were busy, not empty
RETRY_BACKOFF_S = 2.0e-5
#: simulated sizes of the control messages
REQ_BYTES = 64.0
GRANT_OVERHEAD_BYTES = 256.0


@dataclass(frozen=True)
class StealPolicy:
    """Turns inter-node work stealing on: ``stealing=StealPolicy()``
    (``None`` = the paper's static placement). It carries no settings."""


class StealAgent:
    """Per-node thief: turns idle events into bounded steal episodes."""

    def __init__(self, coordinator: "StealCoordinator", node_id: int) -> None:
        self.coordinator = coordinator
        self.node_id = node_id
        #: round-robin position in the victim rotation (persists across
        #: episodes so successive episodes probe different victims first)
        self.cursor = node_id + 1
        self.episode_active = False
        self.requests_left = 0
        #: a backoff timer is pending; workers parked on ``get()`` never
        #: re-notify, so fully-denied episodes must reschedule themselves
        self.retry_pending = False

    def notify_idle(self) -> None:
        """A worker found the ready queue empty; maybe start an episode.

        Called synchronously from worker generators right before they
        park on ``get()``. At most one episode is in flight per node;
        further idle notifications while it runs are no-ops.
        """
        coord = self.coordinator
        runtime = coord.runtime
        if self.episode_active or runtime.done is None or runtime.done.triggered:
            return
        if not coord.cluster.nodes[self.node_id].alive:
            return
        self.episode_active = True
        self.requests_left = MAX_ROUNDS * (coord.n_nodes - 1)
        self._send_next_request()

    def on_grant(self) -> None:
        """A grant arrived; end the episode but keep probing while the
        stolen chain's operands are still in flight (the ready queue
        stays empty until they land, and parked workers never
        re-notify)."""
        self.episode_active = False
        self._schedule_retry()

    def on_deny(self) -> None:
        self._send_next_request()

    def _send_next_request(self) -> None:
        """Fire a STEAL_REQ at the next live victim, or end the episode."""
        coord = self.coordinator
        nodes = coord.cluster.nodes
        n = coord.n_nodes
        while self.requests_left > 0:
            self.requests_left -= 1
            victim = self.cursor % n
            self.cursor += 1
            if victim == self.node_id or not nodes[victim].alive:
                continue
            coord.requests += 1
            coord.send(
                self.node_id,
                victim,
                ("STEAL_REQ", self.node_id, coord.engine.now),
                REQ_BYTES,
            )
            return
        self.episode_active = False
        self._schedule_retry()

    def _schedule_retry(self) -> None:
        """Probe again after a backoff if this node is still starved."""
        if self.retry_pending:
            return
        self.retry_pending = True
        self.coordinator.engine.process(
            self._retry(), name=f"parsec.steal{self.node_id}"
        )

    def _retry(self):
        coord = self.coordinator
        runtime = coord.runtime
        yield coord.engine.timeout(RETRY_BACKOFF_S)
        self.retry_pending = False
        if runtime.done is None or runtime.done.triggered:
            return
        if not coord.cluster.nodes[self.node_id].alive:
            return
        if runtime.schedulers[self.node_id].ready_depth() == 0:
            self.notify_idle()


_STEAL_SERIES = {
    "steal.requests": "requests",
    "steal.granted": "granted",
    "steal.denied": "denied",
    "steal.chains_migrated": "chains_migrated",
    "steal.migrated_flops": ("migrated_flops", "granted"),
    "steal.forwarded_bytes": ("forwarded_bytes", "granted"),
}


class StealCoordinator:
    """Shared protocol state: chain index, message handlers, counters."""

    def __init__(self, runtime: "ParsecRuntime", graph: "TaskGraph") -> None:
        self.runtime = runtime
        #: the level's task state: the index holds its rows
        self.graph = graph
        self.cluster = runtime.cluster
        self.engine = runtime.cluster.engine
        self.metrics = metrics = runtime.cluster.metrics
        self._m_latency = metrics.histogram("steal.latency_s")
        self.n_nodes = runtime.cluster.n_nodes
        self.agents: dict[int, StealAgent] = {
            node.node_id: StealAgent(self, node.node_id)
            for node in runtime.cluster.nodes
        }
        #: chain_id -> migratable task rows, in the template's sorted-key
        #: order (a deterministic sweep)
        self.chain_tasks: dict[int, list[int]] = {}
        template = graph.template
        for index in template.by_name:
            if template.classes[index][0] in MIGRATABLE_CLASSES:
                # a chain task's first param is its chain
                chain_ids = template.param_column(index, 0)
                for row, chain_id in zip(template.class_rows(index), chain_ids):
                    self.chain_tasks.setdefault(chain_id, []).append(row)
        #: each row's GEMM flops (0.0 for every other class): what a steal
        #: moves, read off the metadata once per row, not once per request
        self._flops = array("d", bytes(8 * len(graph)))
        for index, (name, _) in enumerate(template.classes):
            if name == "GEMM":
                rows = template.class_rows(index)
                for row, (_, params) in zip(rows, template.keys(rows)):
                    self._flops[row] = runtime.md.gemm(*params).flops
        #: the live-chain index: per node, the chains that can still turn
        #: steal-eligible there (chain_id -> its rows); under ``None``
        #: the chains whose remaining tasks a crash spread over several
        #: nodes. See :meth:`index_chains` for what leaves it.
        self._live: dict[Optional[int], dict[int, list[int]]] = {}
        # protocol counters (surfaced on ParsecResult)
        self.requests = 0
        self.granted = 0
        self.denied = 0
        self.chains_migrated = 0
        self.migrated_flops = 0.0
        self.forwarded_bytes = 0.0
        metrics.collect(self, _STEAL_SERIES)
        self.index_chains()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def index_chains(self) -> None:
        """(Re)build the live-chain index from the tasks' current homes.

        A chain is steal-eligible only while every not-done task sits on
        the victim, so it is filed under the one node its remaining tasks
        share, or under ``None`` when they span nodes. It leaves the
        index for good once every task is done or once it is stolen:
        ``done`` and ``stolen_from`` are never reset, so such a chain can
        never turn eligible again. Only a crash moves a task to another
        node without a steal, so :meth:`ParsecRuntime._handle_crash
        <repro.parsec.runtime.ParsecRuntime._handle_crash>` rebuilds the
        index after re-homing (the launch-time re-homing of a dead node's
        tasks runs before the coordinator builds it).
        """
        flags, nodes, stolen_from = (
            self.graph.flags,
            self.graph.nodes,
            self.graph.stolen_from,
        )
        live: dict[Optional[int], dict[int, list[int]]] = {
            node: {} for node in range(self.n_nodes)
        }
        live[None] = {}
        for chain_id, tasks in self.chain_tasks.items():
            remaining = [row for row in tasks if not flags[row] & DONE]
            if not remaining or any(row in stolen_from for row in remaining):
                continue
            home: Optional[int] = nodes[remaining[0]]
            if any(nodes[row] != home for row in remaining):
                home = None
            live[home][chain_id] = tasks
        self._live = live

    def close(self) -> None:
        """End of the level (:meth:`ParsecRuntime.shutdown`): the protocol
        is over, so drop the chain index and the agents, and with them
        every path from here back to the runtime (the task graph holds
        nothing that leads back here)."""
        self.metrics.release(self)
        self.chain_tasks.clear()
        self._live.clear()
        self.agents.clear()
        self.runtime = None

    # ------------------------------------------------------------------
    # transport (everything goes through the comm threads + network)
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, payload: tuple, size_bytes: float) -> None:
        self.runtime.comms[src].steal_send(dst, payload, size_bytes)

    def on_message(self, node_id: int, payload: tuple) -> None:
        """Dispatch one incoming steal message (in a comm thread)."""
        opcode = payload[0]
        if opcode == "STEAL_REQ":
            _, thief, t_req = payload
            self._handle_request(node_id, thief, t_req)
        elif opcode == "STEAL_GRANT":
            _, thief, victim, chain_ids, ready_rows, t_req = payload
            self._apply_grant(thief, victim, chain_ids, ready_rows, t_req)
        elif opcode == "STEAL_DENY":
            self.agents[payload[1]].on_deny()

    # ------------------------------------------------------------------
    # victim side
    # ------------------------------------------------------------------
    def _remaining_flops(self, tasks: list[int]) -> float:
        """GEMM flops left in a chain suffix (what a steal actually moves)."""
        return sum(map(self._flops.__getitem__, tasks), 0.0)

    def _eligible_chains(
        self, victim: int
    ) -> list[tuple[int, list, float, float]]:
        """Chains whose remaining suffix is wholly on ``victim`` and
        untouched (no task started or claimed) — the steal-eligible
        frontier, as ``(chain_id, tasks, flops, fwd_bytes)`` tuples, in
        no particular order (the caller sorts).

        A chain needs no *ready* task to migrate: rewriting its rows'
        nodes re-routes all future operand deliveries to the thief, which
        is exactly what relieves a victim whose NIC — not its cores — is
        the bottleneck.

        One pass over the victim's candidates in the live-chain index
        (its own chains, then the crash-spread ones): a finished chain
        leaves the index here, and a spread chain whose remaining tasks
        have converged on one node moves to that node's bucket. A stolen
        chain left at its grant, so no candidate was stolen before — a
        second hop would forward the first hop's operand bytes again,
        and chains could bounce between starved nodes indefinitely.
        """
        machine = self.cluster.machine
        move_rate = 1.0 / machine.comm_pack_bytes_per_s + 1.0 / (
            machine.nic_bw_bytes_per_s
        )
        flags, nodes = self.graph.flags, self.graph.nodes
        live = self._live
        spread = live[None]
        eligible = []
        for bucket in (live[victim], spread):
            gone = []
            for chain_id, tasks in bucket.items():
                remaining = [row for row in tasks if not flags[row] & DONE]
                if not remaining:
                    gone.append(chain_id)
                    continue
                if bucket is spread:
                    home = nodes[remaining[0]]
                    if all(nodes[row] == home for row in remaining):
                        gone.append(chain_id)
                        live[home][chain_id] = tasks
                if any(
                    nodes[row] != victim or flags[row] & (STARTED | CLAIMED)
                    for row in remaining
                ):
                    continue
                fwd = self._forward_bytes(remaining)
                flops = self._remaining_flops(remaining)
                work_s = flops / (machine.gemm_gflops * 1.0e9)
                if work_s < MIN_BENEFIT_RATIO * fwd * move_rate:
                    continue
                eligible.append((chain_id, remaining, flops, fwd))
            for chain_id in gone:
                del bucket[chain_id]
        return eligible

    def _forward_bytes(self, tasks: list[int]) -> float:
        """Bytes of operand data already delivered to the chain's tasks
        (resident on the victim, so they must ride the GRANT)."""
        md = self.runtime.md
        graph = self.graph
        payloads, class_of = graph.payloads, graph.template.class_of
        held = [row for row in tasks if row in payloads]
        total = 0.0
        for row, (_, params) in zip(held, graph.template.keys(held)):
            inputs = payloads[row]
            for flow in graph.classes[class_of[row]].flows:
                # membership, not value: SYNTH mode delivers None payloads
                if flow.name not in inputs:
                    continue
                got = inputs[flow.name]
                count = len(got) if isinstance(got, list) else 1
                total += 8.0 * count * float(flow.size_elems(params, md))
        return total

    def _handle_request(self, victim: int, thief: int, t_req: float) -> None:
        """Answer one STEAL_REQ synchronously at the victim: grant the
        heaviest eligible chain (ties by chain id) that passes the work
        guard, or deny."""
        runtime = self.runtime
        grant = None
        if (
            runtime.done is not None
            and not runtime.done.triggered
            and self.cluster.nodes[thief].alive
        ):
            eligible = self._eligible_chains(victim)
            if len(eligible) >= MIN_VICTIM_BACKLOG:
                eligible.sort(key=lambda item: (-item[2], item[0]))
                pool_flops = sum(item[2] for item in eligible)
                cores = self.cluster.cores_per_node
                for item in eligible:
                    # work-based guard: after this grant, each victim core
                    # must retain MIN_BACKLOG_RATIO x the granted chain's
                    # flops — end-game steals on a balanced workload die
                    # out, a node drowning in huge chains still sheds them
                    chain_flops = item[2]
                    if (
                        pool_flops - chain_flops
                        >= MIN_BACKLOG_RATIO * chain_flops * cores
                    ):
                        grant = item
                        break  # else a lighter chain may still pass
        if grant is None:
            self.denied += 1
            self.send(
                victim, thief, ("STEAL_DENY", thief, victim, t_req), REQ_BYTES
            )
            return
        chain_id, tasks, flops, fwd_bytes = grant
        graph = self.graph
        nodes, pending, stolen_from = graph.nodes, graph.pending, graph.stolen_from
        # a stolen chain never turns eligible again
        del self._live[victim][chain_id]
        ready_rows: list[int] = []
        for row in tasks:
            nodes[row] = thief
            stolen_from[row] = victim
            if pending[row] == 0:
                ready_rows.append(row)
        self.granted += 1
        self.chains_migrated += 1
        self.migrated_flops += flops
        self.forwarded_bytes += fwd_bytes
        now = self.engine.now
        self.cluster.trace.record(
            victim,
            self.cluster.cores_per_node,  # the comm thread's trace row
            TaskCategory.STEAL,
            f"steal.grant->node{thief}",
            now,
            now,
            meta={"thief": thief, "chains": [chain_id], "flops": flops},
        )
        self.send(
            victim,
            thief,
            ("STEAL_GRANT", thief, victim, (chain_id,), tuple(ready_rows), t_req),
            GRANT_OVERHEAD_BYTES + fwd_bytes,
        )

    # ------------------------------------------------------------------
    # thief side
    # ------------------------------------------------------------------
    def _apply_grant(
        self,
        thief: int,
        victim: int,
        chain_ids: tuple,
        ready_rows: tuple,
        t_req: float,
    ) -> None:
        """Enqueue the stolen ready frontier on the thief.

        Each row is re-checked against current task state: if the thief
        crashed while the GRANT was in flight, the crash handler already
        re-homed (and re-enqueued) the migrated tasks, so a stale GRANT
        must not resurrect them here — that would be the dead-getter
        class of task loss all over again.
        """
        runtime = self.runtime
        flags, nodes = self.graph.flags, self.graph.nodes
        for row in ready_rows:
            if flags[row] & (DONE | STARTED | CLAIMED) or nodes[row] != thief:
                continue
            runtime.schedulers[thief].enqueue(row)
        now = self.engine.now
        if self.metrics.enabled:
            self._m_latency.observe(now - t_req)
        self.cluster.trace.record(
            thief,
            self.cluster.cores_per_node,
            TaskCategory.STEAL,
            f"steal.recv<-node{victim}",
            now,
            now,
            meta={"victim": victim, "chains": list(chain_ids), "latency_s": now - t_req},
        )
        self.agents[thief].on_grant()
