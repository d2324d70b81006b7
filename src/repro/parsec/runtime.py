"""The distributed PaRSEC runtime.

Ties the pieces together over a simulated cluster: instantiates the
PTG against the inspection metadata, starts one
:class:`~repro.parsec.scheduler.NodeScheduler` (with one worker per
compute core) and one :class:`~repro.parsec.comm.CommThread` per node,
seeds the initially-ready tasks, and reacts to completions by walking
each task's output dataflow:

- same-node consumers are satisfied immediately by pointer;
- remote consumers get their data through the comm thread and NIC.

The engine is purely event-driven: between events the runtime costs
nothing, matching the paper's "when the hardware is busy executing
application code ... the runtime does not incur overhead".

Fault tolerance
---------------
When a :class:`~repro.sim.faults.FaultPlan` is installed on the
cluster, the runtime recovers from whole-node compute crashes by
re-deriving the lost work from the symbolic task graph — the property
the paper's PTG representation is built on. Every unfinished task
placed on the dead node is re-homed round-robin onto survivors and its
execution epoch bumped (aborting any in-flight attempt at its next
yield point); the payloads its row still holds make re-execution
cheap. Tasks whose bodies already *committed* irreversible effects are
left to finish — the commit marker is what gives exactly-once
write semantics under crashes.

Memory model
------------
A task is a row of the memoised template until a worker runs it: the
run's state is the :class:`~repro.parsec.ptg.TaskGraph`'s columns (node,
pending count, a flag byte per row) and a row's payload and tag dicts,
made at its first delivery. A payload lives from its producer's
completion to its last consumer's: :meth:`_on_complete` hands a task's
outputs to its consumers and, in the same step, drops the row's own
payloads and the task's output table; a level whose rows still hold
payloads at :meth:`shutdown` lost a delivery, which is a
:class:`~repro.util.errors.DataflowError`. A runtime lives for one
level: :meth:`shutdown` makes the cluster forget it and closes what it
spawned, so the level's graph is freed by reference count. Neither rule
has a knob, and no fault plan needs a pin — recovery only ever re-runs
*unfinished* rows, whose payloads the level's graph holds, not the dead
node.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.obs.result import RunResult
from repro.parsec.comm import CommThread
from repro.parsec.ptg import CLAIMED, COMMITTED, DONE, STARTED
from repro.parsec.ptg import PTG, RunningTask, TaskGraph
from repro.parsec.scheduler import NodeScheduler, SchedulerPolicy
from repro.parsec.stealing import StealCoordinator, StealPolicy
from repro.parsec.taskclass import TaskContext
from repro.sim.cluster import Cluster
from repro.sim.engine import SimEvent
from repro.sim.network import CoalescePolicy
from repro.util.errors import ConfigurationError, DataflowError, StallError

__all__ = ["ParsecRuntime", "ParsecResult"]


@dataclass
class ParsecResult(RunResult):
    """Outcome of one PTG execution."""

    execution_time: float
    n_tasks: int
    tasks_per_class: dict[str, int] = field(default_factory=dict)
    messages_remote: int = 0
    bytes_remote: float = 0.0
    deliveries_local: int = 0
    # work-stealing counters (nonzero only under an active StealPolicy)
    steal_requests: int = 0
    steals_granted: int = 0
    steals_denied: int = 0
    chains_migrated: int = 0
    migrated_flops: float = 0.0
    steal_forwarded_bytes: float = 0.0
    #: which PTG variant ran ('v1'..'v5'), when known
    variant: Optional[str] = None


_instance_ids = itertools.count()

_RUNTIME_SERIES = {
    "parsec.messages_remote": "messages_remote",
    "parsec.bytes_remote": ("bytes_remote", "messages_remote"),
    "parsec.deliveries_local": "deliveries_local",
}


def _payload_bytes(delivered) -> int:
    """Bytes held by a task's delivered inputs: a flow holds one payload
    or, after several deliveries, a list of them. Only arrays count —
    SYNTH payloads are ``None`` and toy PTGs pass plain Python values."""
    total = 0
    for got in delivered:
        for payload in got if isinstance(got, list) else (got,):
            total += getattr(payload, "nbytes", 0)
    return total


class ParsecRuntime:
    """One PTG execution engine bound to a cluster."""

    def __init__(
        self,
        cluster: Cluster,
        policy: "SchedulerPolicy | str | None" = None,
        stealing: "StealPolicy | None" = None,
        coalescing: "CoalescePolicy | None" = None,
    ) -> None:
        self.instance_id = next(_instance_ids)
        self.cluster = cluster
        try:
            # a str enum: a member passes through, a name becomes one
            self.policy = SchedulerPolicy(policy or SchedulerPolicy.PRIORITY)
        except ValueError:
            choices = ", ".join(member.value for member in SchedulerPolicy)
            raise ConfigurationError(
                f"unknown scheduler policy {policy!r} (choose one of {choices})"
            ) from None
        self.steal_policy = stealing
        #: per-destination dataflow aggregation (None = every send passes
        #: through, the default wire behavior the golden digests pin)
        self.coalescing = coalescing
        self.stealing: Optional[StealCoordinator] = None
        self.graph: Optional[TaskGraph] = None
        self.md: Any = None
        self.schedulers: list[NodeScheduler] = []
        self.comms: list[CommThread] = []
        self.done: Optional[SimEvent] = None
        self.done_at: Optional[float] = None
        self._completed = 0
        self._n_tasks = 0
        # statistics
        self.messages_remote = 0
        self.bytes_remote = 0.0
        self.deliveries_local = 0
        #: bytes of delivered, not-yet-released payloads and of payloads queued
        #: in comm-thread send mailboxes, with high-water marks; registry-on only
        self._live_bytes = self._live_bytes_hwm = 0
        self._queued_bytes = self._queued_bytes_hwm = 0

    # ------------------------------------------------------------------
    def launch(self, ptg: PTG, md: Any, validate: bool = True) -> SimEvent:
        """Instantiate and start executing; returns the completion event.

        Use this form to embed a PaRSEC section inside a larger
        simulated program (the NWChem integration driver does)."""
        if self.graph is not None:
            raise DataflowError("ParsecRuntime.launch() called twice")
        self.md = md
        self.graph = ptg.instantiate(md, self.cluster.n_nodes, validate=validate)
        self._rehome_dead_at_launch()
        self.done = self.cluster.engine.event()
        self._completed = 0
        self._n_tasks = len(self.graph)
        self.cluster.metrics.collect(self, _RUNTIME_SERIES)
        for node in self.cluster.nodes:
            self.schedulers.append(
                NodeScheduler(
                    self,
                    node,
                    self.cluster.cores_per_node,
                    policy=self.policy,
                    n_gpus=self.cluster.config.gpus_per_node,
                )
            )
            self.comms.append(CommThread(self, node))
        if self.steal_policy is not None and self.cluster.n_nodes >= 2:
            self.stealing = StealCoordinator(self, self.graph)
            for scheduler in self.schedulers:
                scheduler.steal_agent = self.stealing.agents[scheduler.node.node_id]
        if self.cluster.faults is not None:
            self.cluster.faults.on_crash(self._handle_crash)
        if len(self.graph) == 0:
            self.done.succeed()
            return self.done
        # Seed input-less tasks in creation order: PaRSEC discovers
        # startup tasks by sweeping task classes one after another, so
        # without priorities ALL READ_A instances precede ALL READ_B
        # instances in the ready queues. This is the mechanism behind
        # the paper's Figure 11: variant v2 (no priorities) floods the
        # network with one operand class first and idles until matched
        # pairs arrive, while priorities (v4) interleave per chain.
        nodes = self.graph.nodes
        for row in self.graph.initially_ready():
            self.schedulers[nodes[row]].enqueue(row)
        return self.done

    def execute(self, ptg: PTG, md: Any, validate: bool = True) -> ParsecResult:
        """Run a PTG to completion; returns timing and statistics."""
        start_time = self.cluster.engine.now
        done = self.launch(ptg, md, validate=validate)
        end_time = self.cluster.run()
        if not done.triggered:
            # a stalled level is shut down too; the rows still holding
            # payloads (its DataflowError) are the stall's cause
            stall = self._stall_error()
            try:
                self.shutdown()
            except DataflowError as held:
                raise stall from held
            raise stall
        # the makespan ends when the last task completes; any steal
        # chatter still in flight after that drains off the clock
        if self.done_at is not None:
            end_time = self.done_at
        assert self.graph is not None  # set by launch()
        result = ParsecResult(
            execution_time=end_time - start_time,
            n_tasks=len(self.graph),
            tasks_per_class=self.graph.tasks_per_class(),
            messages_remote=self.messages_remote,
            bytes_remote=self.bytes_remote,
            deliveries_local=self.deliveries_local,
        )
        if self.stealing is not None:
            result.steal_requests = self.stealing.requests
            result.steals_granted = self.stealing.granted
            result.steals_denied = self.stealing.denied
            result.chains_migrated = self.stealing.chains_migrated
            result.migrated_flops = self.stealing.migrated_flops
            result.steal_forwarded_bytes = self.stealing.forwarded_bytes
        # maxima, not sums: published as gauges, never as result fields
        # (the level merge adds every numeric field)
        for name, hwm in (
            ("parsec.live_payload_bytes.hwm", self._live_bytes_hwm),
            ("parsec.queued_payload_bytes.hwm", self._queued_bytes_hwm),
        ):
            if hwm:
                self.cluster.metrics.gauge_max(name, float(hwm))
        self.shutdown()
        return result

    def shutdown(self) -> None:
        """End of the level, after its last event: free what the runtime
        spawned, by reference count, and make the cluster forget it.
        Every row must have let go of its payloads by now (a row still
        holding one never ran: a :class:`DataflowError`, which
        :meth:`execute` makes the cause of a stalled level's
        :class:`StallError`).

        The schedulers abandon *and close* the workers parked for good
        on the ready queues (a parked process is a cycle whose frame
        reaches the level's graph; every worker is parked outside any
        ``try``, so closing schedules nothing — the crash-drain path
        only abandons). The comm threads drop their mailboxes, both drop
        their back-references to the runtime, the steal layer its chain
        index, and crash notifications are unsubscribed. The level's
        task graph then dies with the last reference to the runtime — no
        collector involved.

        The runtime object keeps ``graph``, ``schedulers`` and its
        counters for a caller that still holds it — but not ``md``: the
        metadata holds the workload's Global Arrays, which die with the
        workload, not with whoever still holds a finished runtime.
        """
        for scheduler, comm in zip(self.schedulers, self.comms):
            scheduler.close()
            comm.close()
        if self.stealing is not None:
            self.stealing.close()
        self.cluster.metrics.release(self)
        if self.cluster.faults is not None:
            self.cluster.faults.off_crash(self._handle_crash)
        self.md = None
        if self.graph is not None:
            self.graph.md = None
            self.graph.check_drained()

    # ------------------------------------------------------------------
    # stall watchdog
    # ------------------------------------------------------------------
    def _waiting_flows(self, row: int) -> list[str]:
        """Which flows a not-yet-ready row is still missing, as
        ``name(received/expected)`` strings: a flow expects the
        template's edges into the row that land on it."""
        graph = self.graph
        assert graph is not None
        template = graph.template
        expected: Counter = Counter()
        for j, consumer in enumerate(template.consumers):
            if consumer == row:
                producer = bisect_right(template.edge_starts, j) - 1
                _, dep = graph.cls(producer).out_deps[template.edge_deps[j]]
                expected[dep.flow] += 1
        inputs = graph.payloads.get(row, {})
        missing = []
        for flow in graph.cls(row).flows:
            got = inputs.get(flow.name)
            received = 0 if got is None else (len(got) if isinstance(got, list) else 1)
            if received < expected[flow.name]:
                missing.append(f"{flow.name}({received}/{expected[flow.name]})")
        return missing

    def _stall_error(self) -> StallError:
        """Build the diagnosable stall report the watchdog raises."""
        graph = self.graph
        assert graph is not None  # set by launch()
        flags = graph.flags
        stuck = [row for row in range(len(graph)) if not flags[row] & DONE]
        lines = [
            f"execution stalled with {len(stuck)} unfinished tasks "
            f"(of {len(graph)}) at t={self.cluster.engine.now:.6f}s"
        ]
        for sched in self.schedulers:
            node, nic = sched.node, sched.node.nic
            lines.append(
                f"  node {node.node_id}: alive={node.alive} "
                f"ready={sched.ready_depth()} "
                f"nic tx/rx backlog={nic.tx.queue_length}/{nic.rx.queue_length}"
            )
        for row in stuck[:10]:
            waiting = self._waiting_flows(row)
            if waiting:
                detail = f"waiting on {', '.join(waiting)}"
            elif flags[row] & STARTED:
                detail = "started, never finished"
            else:
                detail = "ready but never ran"
            label, home = graph.label(row), graph.nodes[row]
            lines.append(f"  stuck: {label} @node{home}: {detail}")
        if len(stuck) > 10:
            lines.append(f"  ... and {len(stuck) - 10} more")
        faults = self.cluster.faults
        if faults is not None:
            lines.append(f"  fault report: {faults.report.summary()}")
        return StallError(
            "\n".join(lines), report=faults.report if faults is not None else None
        )

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    def _rehome_dead_at_launch(self) -> None:
        """Move tasks mapped to already-dead nodes before execution starts.

        A PTG launched *after* a crash (a later level of a multi-level
        workload) still places tasks by the static owner map, which may
        name a node that died during an earlier level. Runs before the
        schedulers exist, so it only rewrites the rows' nodes; the normal
        seeding path then enqueues on the new homes. Deterministic:
        sorted key order (the template's), survivors filled round-robin.
        """
        if self.cluster.faults is None:
            return
        alive = [n.alive for n in self.cluster.nodes]
        if all(alive):
            return
        survivors = [n.node_id for n in self.cluster.nodes if n.alive]
        if not survivors:
            return  # nothing to fail over to; the watchdog will report
        assert self.graph is not None  # called from launch() after instantiate
        nodes = self.graph.nodes
        placed = 0
        for row in self.graph.template.sorted_rows:
            if alive[nodes[row]]:
                continue
            nodes[row] = survivors[placed % len(survivors)]
            placed += 1
        self.cluster.faults.report.tasks_reassigned += placed

    def _handle_crash(self, node) -> None:
        """Re-home the dead node's unfinished tasks onto survivors.

        Runs synchronously at the crash instant. Deterministic: the row
        sweep is in sorted key order (the template's) and survivors are
        filled round-robin. Committed tasks stay put (their effects are
        already published); everything else gets a fresh epoch, which
        aborts any in-flight attempt at its next yield point.
        """
        if self.graph is None or self.done is None or self.done.triggered:
            return
        dead = node.node_id
        survivors = [n.node_id for n in self.cluster.nodes if n.alive]
        if not survivors:
            return  # nothing to fail over to; the watchdog will report
        self.schedulers[dead].drain()
        assert self.cluster.faults is not None  # crashes come from the injector
        report = self.cluster.faults.report
        graph = self.graph
        nodes, flags, epochs = graph.nodes, graph.flags, graph.epochs
        placed = 0
        for row in graph.template.sorted_rows:
            if nodes[row] != dead or flags[row] & (DONE | COMMITTED):
                continue
            home = nodes[row] = survivors[placed % len(survivors)]
            epochs[row] = epochs.get(row, 0) + 1
            # a claim pins a task to the worker that popped it; that
            # worker died with the node, so the pin must not survive
            # (a still-claimed task would also stay steal-ineligible)
            flags[row] &= ~(STARTED | CLAIMED)
            placed += 1
            if graph.pending[row] == 0:
                self.schedulers[home].enqueue(row)
        report.tasks_reassigned += placed
        if self.stealing is not None:
            self.stealing.index_chains()  # chains moved without a steal

    # ------------------------------------------------------------------
    # completion / delivery machinery (called from workers & comm threads)
    # ------------------------------------------------------------------
    def _on_complete(self, task: RunningTask, context: TaskContext) -> None:
        md = self.md
        graph = self.graph
        assert graph is not None  # executing tasks imply a live graph
        row = task.row
        # exactly once: a second completion of the row raises here
        inputs = graph.complete(row)
        nodes = graph.nodes
        params = task.params
        node = nodes[row]
        key = task.key
        outputs = context.outputs
        out_deps = task.cls.out_deps
        # the successors the template resolved: guards and param maps
        # were evaluated once per template, not once per completion
        template = graph.template
        edge_deps, consumers = template.edge_deps, template.consumers
        for j in range(template.edge_starts[row], template.edge_starts[row + 1]):
            flow, dep = out_deps[edge_deps[j]]
            consumer = consumers[j]
            try:
                home = nodes[consumer]
            except IndexError:  # past every row: unvalidated, missing
                raise DataflowError(
                    f"{task.label}.{flow.name} -> missing {template.missing[j]}"
                ) from None
            payload = outputs.get(flow.name)
            if dep.transform is not None and payload is not None:
                payload = dep.transform(payload, params, md)
            if home == node:
                # same node: pass by pointer, no transport
                self._deliver(consumer, dep.flow, payload, tag=key)
            else:
                size_fn = dep.size_elems or flow.size_elems
                size_bytes = 8.0 * float(size_fn(params, md))
                self.comms[node].send(consumer, dep.flow, payload, size_bytes, tag=key)
        # the consumer's end of the payload lifetime rule: every output
        # now belongs to its consumers (or the comm thread's mailbox), and
        # the row's own payloads die with this frame
        if self._live_bytes and inputs:  # nonzero only with the registry on, in REAL
            self._live_bytes -= _payload_bytes(inputs.values())
        context.outputs.clear()
        self._completed += 1
        if self._completed == self._n_tasks:
            self.done_at = self.cluster.engine.now
            assert self.done is not None
            self.done.succeed()

    def _deliver(self, consumer: int, flow: str, data: Any, tag: Any = None) -> None:
        graph = self.graph
        assert graph is not None  # deliveries imply a live graph
        self.deliveries_local += 1
        if self.cluster.metrics.enabled and (nbytes := getattr(data, "nbytes", 0)):
            live = self._live_bytes = self._live_bytes + nbytes
            if live > self._live_bytes_hwm:
                self._live_bytes_hwm = live
        if graph.receive(consumer, flow, data, tag):
            self.schedulers[graph.nodes[consumer]].enqueue(consumer)
