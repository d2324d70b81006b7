"""The coarse-grain runtime: ranks, levels, and NXTVAL work stealing.

One simulated rank per (node, core), exactly like the original code's
one-MPI-rank-per-core mapping. Work is divided into levels with an
explicit barrier between them; within a level ranks repeatedly call
NXTVAL to atomically claim the next chain — "global work stealing" with
a unit of work of one whole chain (Section III-A / IV-D).

A ``use_nxtval=False`` configuration swaps in a static rank-cyclic chain
assignment, which the load-balancing ablation benchmark uses to isolate
the cost/benefit of the shared counter.

Fault tolerance: under an installed :class:`~repro.sim.faults.FaultPlan`
the NXTVAL counter doubles as the recovery mechanism — exactly what
makes work stealing robust. A rank that dies mid-chain hands its
claimed-but-uncommitted ticket back to the counter
(:meth:`~repro.ga.nxtval.NxtvalServer.reissue`), spawns a recovery
claim-loop on a surviving node so the orphan is re-claimed even if all
survivors have already left the claim phase, then withdraws from the
level barrier so the remaining ranks are not held hostage. Static
assignment has no such channel, so crash plans require ``use_nxtval``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ga.nxtval import NxtvalServer
from repro.ga.sync import Barrier
from repro.legacy.chain_exec import execute_chain
from repro.obs.result import RunResult
from repro.sim.cluster import Cluster
from repro.sim.trace import TaskCategory
from repro.tce.subroutine import ChainSpec, Subroutine
from repro.util.errors import ConfigurationError, StallError

__all__ = ["LegacyConfig", "LegacyResult", "LegacyRuntime"]


@dataclass(frozen=True)
class LegacyConfig:
    """Knobs of the legacy execution model."""

    #: True: NXTVAL shared-counter stealing (the original behaviour).
    #: False: static rank-cyclic assignment (ablation).
    use_nxtval: bool = True


@dataclass
class LegacyResult(RunResult):
    """Outcome of one legacy execution."""

    execution_time: float
    n_ranks: int
    chains_executed: int
    #: chains executed per rank, keyed by (node, thread) — load balance data
    chains_per_rank: dict = field(default_factory=dict)

    @property
    def n_tasks(self) -> int:
        """The legacy unit of work is one whole chain."""
        return self.chains_executed


class LegacyRuntime:
    """Drives a list of work levels over the simulated cluster."""

    def __init__(self, cluster: Cluster, ga, config: Optional[LegacyConfig] = None):
        self.cluster = cluster
        self.ga = ga
        self.config = config or LegacyConfig()
        self._m_barrier_waits = cluster.metrics.counter("legacy.barrier_waits")
        self._m_barrier_wait_s = cluster.metrics.histogram("legacy.barrier_wait_s")
        self._m_chain_gemms = cluster.metrics.counter("legacy.chain_gemms")
        #: the per-level NXTVAL servers of the sections launched so far
        self._counters: list[NxtvalServer] = []
        self._crashable = False

    def execute_subroutine(self, subroutine: Subroutine) -> LegacyResult:
        """Run a single subroutine (one work level)."""
        return self.execute([list(subroutine.chains)])

    def launch(self, levels: list[list[ChainSpec]]):
        """Start executing ``levels``; returns ``(done_event, result)``.

        Use this form to embed a legacy section inside a larger
        simulated program (the NWChem integration driver sequences
        legacy and PaRSEC kernels this way). ``result`` fields other
        than ``execution_time`` are filled in as ranks finish.
        """
        if not levels:
            raise ConfigurationError("need at least one work level")
        cluster = self.cluster
        # only a planned crash stops a node, so without one no chain
        # body needs an abort predicate
        self._crashable = cluster.faults is not None and bool(
            cluster.faults.plan.crashes
        )
        if self._crashable and not self.config.use_nxtval:
            raise ConfigurationError(
                "node-crash fault plans require use_nxtval=True: static "
                "chain assignment has no channel to re-claim a dead "
                "rank's work"
            )
        engine = cluster.engine
        machine = cluster.machine
        ranks = [
            (node, thread)
            for node in cluster.nodes
            for thread in range(cluster.cores_per_node)
        ]
        barrier = Barrier(engine, parties=len(ranks), overhead=machine.barrier_overhead_s)
        # one fresh counter per level, as the original resets per level
        counters = [NxtvalServer(self.ga) for _ in levels]
        self._counters += counters
        result = LegacyResult(
            execution_time=0.0, n_ranks=len(ranks), chains_executed=0
        )
        cluster.metrics.collect(result, {"legacy.chains_executed": "chains_executed"})
        done = engine.event()
        state = {"remaining": len(ranks)}
        #: one process per rank; a rank finds its own by id, to install
        #: the abort rule around each chain body
        processes = []

        def rank_wrapper(rank_id, node, thread):
            yield from self._rank_loop(
                processes[rank_id],
                rank_id,
                node,
                thread,
                levels,
                counters,
                barrier,
                result,
            )
            state["remaining"] -= 1
            if state["remaining"] == 0:
                # every chain has run: fold the count into the registry
                cluster.metrics.release(result)
                done.succeed(result)

        for rank_id, (node, thread) in enumerate(ranks):
            processes.append(
                engine.process(
                    rank_wrapper(rank_id, node, thread), name=f"legacy.rank{rank_id}"
                )
            )
        return done, result

    def execute(self, levels: list[list[ChainSpec]]) -> LegacyResult:
        """Run ``levels`` to completion; returns timing and stats.

        Chains are only stealable within their level — the barrier
        between levels means "the number of chains available for
        parallel execution at any time is a subset of the total".
        """
        start_time = self.cluster.engine.now
        faults = self.cluster.faults
        done, result = self.launch(levels)
        result.execution_time = self.cluster.run() - start_time
        if not done.triggered:
            raise StallError(
                "legacy execution stalled before completing: "
                f"{result.chains_executed} of {sum(map(len, levels))} chains "
                f"done at t={self.cluster.engine.now:.6f}s",
                report=faults.report if faults is not None else None,
            )
        self.shutdown()
        return result

    def shutdown(self) -> None:
        """End of the section, after its last event: every rank has
        returned; drop the NXTVAL counters' mailboxes, one per level."""
        for counter in self._counters:
            counter.close()
        self._counters.clear()

    # ------------------------------------------------------------------
    def _rank_loop(self, me, rank_id, node, thread, levels, counters, barrier, result):
        key = (node.node_id, thread)
        result.chains_per_rank.setdefault(key, 0)
        n_ranks = barrier.parties
        for level_chains, counter in zip(levels, counters):
            if not node.alive:
                # this rank's compute died between levels
                yield from self._rank_died(
                    node, level_chains, counter, result, None, barrier
                )
                return
            if self.config.use_nxtval:
                survived, lost_ticket = yield from self._claim_loop(
                    me, node, thread, level_chains, counter, result, key
                )
                if not survived:
                    yield from self._rank_died(
                        node, level_chains, counter, result, lost_ticket, barrier
                    )
                    return
            else:
                for index in range(rank_id, len(level_chains), n_ranks):
                    yield from self._run_chain(
                        me, node, thread, level_chains[index], result, key
                    )
            t_start = self.cluster.engine.now
            yield from barrier.arrive()
            if self.cluster.metrics.enabled:
                self._m_barrier_waits.value += 1.0
                self._m_barrier_wait_s.observe(self.cluster.engine.now - t_start)
            if node.trace.enabled:
                node.trace.record(
                    node.node_id,
                    thread,
                    TaskCategory.BARRIER,
                    "GA_Sync",
                    t_start,
                    self.cluster.engine.now,
                )

    def _claim_loop(
        self,
        me,
        node,
        thread,
        level_chains,
        counter,
        result,
        key,
        recovering=False,
    ):
        """NXTVAL claim loop for one level on one rank.

        Returns ``(survived, lost_ticket)``: ``survived`` is False when
        the rank's node died during the loop, and ``lost_ticket`` is the
        ticket it had claimed but not committed (None if none was lost —
        an in-flight chain past its commit point runs to completion even
        on a dead node, so its ticket is not orphaned).
        """
        engine = self.cluster.engine
        trace = node.trace
        while True:
            t_start = engine.now
            ticket = yield from counter.next(node.node_id)
            if trace.enabled:
                trace.record(
                    node.node_id,
                    thread,
                    TaskCategory.NXTVAL,
                    f"NXTVAL#{ticket}",
                    t_start,
                    engine.now,
                )
            if ticket >= len(level_chains):
                return True, None
            if not node.alive:
                # died while the request was in flight: claimed, no work done
                return False, ticket
            completed = yield from self._run_chain(
                me,
                node,
                thread,
                level_chains[ticket],
                result,
                key,
                recovering=recovering,
            )
            if not completed:
                return False, ticket
            if not node.alive:
                # committed chain finished on a dead node; stop claiming
                return False, None

    def _run_chain(self, me, node, thread, chain, result, key, recovering=False):
        """Run one chain with fault handling; returns True if completed.

        ``me`` is the process running it (a rank or a recovery worker).
        Injected transient failures retry the chain from scratch (its
        pre-commit phase has no side effects). A node crash kills the
        chain at its next resume unless it has already passed its commit
        point, in which case it runs to completion — the blocking GA
        calls still work because the crash model only stops compute.
        """
        faults = self.cluster.faults
        if faults is not None:
            label = f"chain:{chain.chain_id}"
            if faults.plan.task_fails(label, 0):
                yield from faults.retry_gate(label)
        cluster = self.cluster
        if self._crashable:
            committed = [False]
            completed = yield from me.abortable(
                execute_chain(
                    cluster,
                    self.ga,
                    node,
                    thread,
                    chain,
                    on_commit=lambda: committed.__setitem__(0, True),
                ),
                lambda: not node.alive and not committed[0],
            )
        else:
            # nothing can kill the body: no abort rule, no wrapper frame
            yield from execute_chain(cluster, self.ga, node, thread, chain)
            completed = True
        if completed:
            result.chains_executed += 1
            result.chains_per_rank[key] += 1
            if self.cluster.metrics.enabled:
                self._m_chain_gemms.value += len(chain.gemms)
            if recovering:
                faults.report.chains_recovered += 1
        return completed

    def _rank_died(self, node, level_chains, counter, result, lost_ticket, barrier):
        """Wind down a dead rank: reissue, recover, leave the barrier."""
        faults = self.cluster.faults
        faults.report.ranks_lost += 1
        if lost_ticket is not None and lost_ticket < len(level_chains):
            counter.reissue(lost_ticket)
            faults.report.tickets_reissued += 1
            # The orphaned ticket must be re-claimed even if every
            # survivor has already drained the counter and moved to the
            # barrier — so run a recovery claim loop on a survivor and
            # hold this rank's barrier slot until it finishes.
            box = []
            worker = self.cluster.engine.process(
                self._recovery_worker(box, level_chains, counter, result),
                name=f"legacy.recovery:{counter.inbox_name}",
            )
            box.append(worker)
            yield worker
        barrier.withdraw(1)

    def _recovery_worker(self, box, level_chains, counter, result):
        """Claim-loop on a surviving node until the counter is drained;
        ``box`` holds the process running it.

        Runs on a thread lane above the worker cores so its trace row
        does not collide with the node's own ranks. If the chosen
        survivor itself dies mid-recovery, the loop reissues and moves
        to the next survivor.
        """
        faults = self.cluster.faults
        me = box.pop()
        while True:
            alive = [n for n in self.cluster.nodes if n.alive]
            if not alive:
                return  # total loss; the stall report will say so
            node = alive[0]
            thread = self.cluster.cores_per_node + 1
            key = (node.node_id, thread)
            result.chains_per_rank.setdefault(key, 0)
            survived, lost = yield from self._claim_loop(
                me, node, thread, level_chains, counter, result, key, recovering=True
            )
            if survived:
                return
            if lost is not None and lost < len(level_chains):
                counter.reissue(lost)
                faults.report.tickets_reissued += 1
