"""Chaos testing: every runtime under a seeded fault plan.

Runs the legacy runtime and all five PaRSEC variants three times each:
once fault-free (the reference), then twice under the same seeded
:class:`~repro.sim.faults.FaultPlan` injecting at least one of each
fault class — transient task failures, message drop/delay/duplication,
a straggler window, and a whole-node crash. Each runner must

- complete despite the faults (recovery machinery working),
- produce a tensor **bitwise identical** to its fault-free reference
  (exactly-once arithmetic via ordered accumulation),
- report nonzero recovery counters (the faults actually fired), and
- give identical virtual end times across the two faulted runs
  (fault injection and recovery are fully deterministic).

Bitwise equivalence is only meaningful with a canonical accumulation
order, so every run — including the reference — enables the output
array's ordered-accumulation mode; the fault-free timeline is
otherwise untouched. Any registered workload can be put under chaos
(``workload=``); multi-level workloads additionally exercise recovery
across level barriers (a PTG launched after a crash re-homes the dead
node's tasks at launch).

Each runner's triple is one independent sweep cell (its fault plan is
derived from its own fault-free horizon, nothing crosses runners), so
the sweep dispatches through
:class:`~repro.experiments.sweep.SweepExecutor`: ``jobs > 1`` runs the
runners in worker processes with results merged deterministically.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core import api
from repro.core.variants import PAPER_VARIANTS
from repro.experiments.calibration import cell_config
from repro.experiments.sweep import SweepCell, SweepExecutor, SweepStats
from repro.sim.cluster import DataMode
from repro.sim.faults import FaultPlan, NodeCrash, Straggler
from repro.util.rng import derive_seed
from repro.workloads import canonical_token

__all__ = ["ChaosOutcome", "ChaosResult", "chaos_cells", "default_plan", "run_chaos"]


@dataclass
class ChaosOutcome:
    """One runner's behaviour under the fault plan."""

    name: str
    #: faulted output == fault-free output, bit for bit
    bitwise_match: bool
    #: the two same-seed faulted runs agreed (values and end time)
    deterministic: bool
    #: at least one recovery counter is nonzero
    faults_recovered: bool
    end_time_clean: float
    end_time_faulted: float
    #: full fault/recovery counter set (FaultReport fields)
    counters: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.bitwise_match and self.deterministic and self.faults_recovered


@dataclass
class ChaosResult:
    """Outcome of the whole sweep plus the plan that produced it."""

    plan_description: str
    outcomes: list[ChaosOutcome] = field(default_factory=list)
    #: wall-clock accounting of the sweep (host-side diagnostics only)
    sweep_stats: Optional[SweepStats] = field(
        default=None, repr=False, compare=False
    )

    @property
    def all_ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)


def default_plan(master_seed: int, horizon_s: float, n_nodes: int) -> FaultPlan:
    """A plan exercising every fault class within ``horizon_s``.

    The straggler window and the crash instant are placed relative to
    the runner's fault-free execution time so the faults land while
    work is actually in flight; the afflicted nodes are derived from
    the master seed. With fewer than two nodes the crash is dropped —
    there would be no survivor to recover onto.
    """
    crash_node = derive_seed(master_seed, "chaos:crash-node") % n_nodes
    slow_node = derive_seed(master_seed, "chaos:slow-node") % n_nodes
    crashes = ()
    if n_nodes >= 2:
        crashes = (NodeCrash(node=crash_node, at=0.45 * horizon_s),)
    return FaultPlan(
        master_seed=master_seed,
        task_fail_prob=0.05,
        drop_prob=0.04,
        delay_prob=0.04,
        dup_prob=0.03,
        stragglers=(
            Straggler(
                node=slow_node,
                t_start=0.2 * horizon_s,
                t_end=0.7 * horizon_s,
                factor=2.5,
            ),
        ),
        crashes=crashes,
    )


#: FaultReport counters that show a fault fired and was recovered from
_RECOVERY_COUNTERS = (
    "task_retries",
    "retransmits",
    "tasks_recomputed",
    "tasks_reassigned",
    "tickets_reissued",
    "chains_recovered",
    "nodes_crashed",
)


def _chaos_cell(
    name: str,
    scale: str = "tiny",
    n_nodes: int = 4,
    cores_per_node: int = 2,
    seed: int = 7,
    fault_seed: int = 2025,
    stealing: bool = False,
    workload: str = "t2_7",
) -> tuple[ChaosOutcome, str]:
    """One runner's full triple (reference + two faulted runs).

    Module-level and pure-data in/out so the sweep executor can ship it
    to a worker process; returns the outcome plus the plan description.
    """
    # the legacy runtime ignores the steal policy
    config = cell_config(
        cores_per_node, n_nodes, DataMode.REAL, stealing=stealing, seed=seed
    )
    token = canonical_token(workload, scale=scale)

    def one_run(plan):
        """(output values, end time, counter dict) of one run."""
        workload_obj = api.build(token, config)
        cluster = workload_obj.cluster
        workload_obj.output.array.enable_ordered_accumulation()
        if plan is not None:
            cluster.install_faults(plan)
        api.run(workload_obj, runtime=name, config=config)
        counters = asdict(cluster.faults.report) if cluster.faults else {}
        return workload_obj.output.flat_values(), cluster.engine.now, counters

    reference, horizon, _ = one_run(None)
    plan = default_plan(fault_seed, horizon, n_nodes)
    values_a, end_a, counters_a = one_run(plan)
    values_b, end_b, counters_b = one_run(plan)
    outcome = ChaosOutcome(
        name=name,
        bitwise_match=bool(
            np.array_equal(values_a, reference)
            and np.array_equal(values_b, reference)
        ),
        deterministic=bool(
            end_a == end_b
            and counters_a == counters_b
            and np.array_equal(values_a, values_b)
        ),
        faults_recovered=any(counters_a.get(k, 0) > 0 for k in _RECOVERY_COUNTERS),
        end_time_clean=horizon,
        end_time_faulted=end_a,
        counters=counters_a,
    )
    return outcome, plan.describe()


def chaos_cells(codes: Sequence[str], **cell_fields) -> list[SweepCell]:
    """One :func:`_chaos_cell` sweep cell per runner in ``codes``: plain
    parameters (``cell_fields``, the same for every runner); the
    inspection is memoised where the cell runs."""
    return [
        SweepCell(key=(name,), fn=_chaos_cell, kwargs=dict(name=name, **cell_fields))
        for name in codes
    ]


def run_chaos(
    scale: str = "tiny",
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    codes: Optional[list[str]] = None,
    workload: str = "t2_7",
    **cell_kwargs,
) -> ChaosResult:
    """The full chaos sweep: legacy plus the five PaRSEC variants.

    ``codes`` restricts the sweep to a subset of runners; ``workload``
    picks any registered workload (multi-level ones recover across
    level barriers too). ``cell_kwargs`` are :func:`_chaos_cell`'s other
    arguments (``n_nodes``, ``cores_per_node``, ``seed``,
    ``fault_seed``, ``stealing``); ``stealing`` enables the
    work-stealing policy on the PaRSEC variants, so the chaos triple
    also exercises the fault x stealing interaction (the legacy runtime
    ignores it).
    """
    names = codes if codes else ["original"] + sorted(PAPER_VARIANTS)
    cells = chaos_cells(names, scale=scale, workload=workload, **cell_kwargs)
    executor = SweepExecutor(
        jobs=jobs, progress=progress, label=f"chaos[{workload}:{scale}]"
    )
    results, stats = executor.run(cells)
    return ChaosResult(
        plan_description=results[(names[0],)][1],
        outcomes=[results[(name,)][0] for name in names],
        sweep_stats=stats,
    )
