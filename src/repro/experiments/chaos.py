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
derived from its own fault-free horizon, nothing crosses runners):
:data:`CHAOS` declares them, and ``jobs > 1`` runs the runners in
worker processes with results merged deterministically.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.analysis.report import format_table
from repro.core import api
from repro.core.variants import PAPER_VARIANTS
from repro.experiments.calibration import cell_config
from repro.experiments.claims import Experiment, ShapeCheck, render_claims
from repro.experiments.sweep import SweepCell, SweepStats
from repro.sim.cluster import DataMode
from repro.sim.faults import FaultPlan, NodeCrash, Straggler
from repro.util.rng import derive_seed
from repro.workloads import canonical_token

__all__ = [
    "CHAOS",
    "ChaosOutcome",
    "ChaosResult",
    "chaos_cells",
    "chaos_claims",
    "chaos_report",
    "default_plan",
    "run_chaos",
]


@dataclass
class ChaosOutcome:
    """One runner's behaviour under the fault plan."""

    name: str
    #: faulted output == fault-free output, bit for bit
    bitwise_match: bool
    #: the two same-seed faulted runs agreed (values and end time)
    deterministic: bool
    #: a fault fired and was recovered from (``FaultReport.recovered``)
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
    sweep_stats: Optional[SweepStats] = field(default=None, repr=False, compare=False)


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


def _chaos_cell(
    name: str,
    scale: str,
    n_nodes: int,
    cores_per_node: int,
    seed: int,
    fault_seed: int,
    stealing: bool,
    workload: str,
) -> tuple[ChaosOutcome, str]:
    """One runner's full triple (reference + two faulted runs).

    Module-level and pure-data in/out so the sweep executor can ship it
    to a worker process; returns the outcome plus the plan description.
    """
    config = cell_config(
        cores_per_node, n_nodes, DataMode.REAL, stealing=stealing, seed=seed
    )
    config = api.for_runtime(config, name)
    token = canonical_token(workload, scale=scale)

    def one_run(plan):
        """(output values, end time, fault injector) of one run."""
        workload_obj = api.build(token, config)
        cluster = workload_obj.cluster
        workload_obj.output.array.enable_ordered_accumulation()
        if plan is not None:
            cluster.install_faults(plan)
        api.run(workload_obj, runtime=name, config=config)
        return workload_obj.output.flat_values(), cluster.engine.now, cluster.faults

    reference, horizon, _ = one_run(None)
    plan = default_plan(fault_seed, horizon, n_nodes)
    values_a, end_a, faults_a = one_run(plan)
    values_b, end_b, faults_b = one_run(plan)
    outcome = ChaosOutcome(
        name=name,
        bitwise_match=bool(
            np.array_equal(values_a, reference)
            and np.array_equal(values_b, reference)
        ),
        deterministic=bool(
            end_a == end_b
            and faults_a.report == faults_b.report
            and np.array_equal(values_a, values_b)
        ),
        faults_recovered=faults_a.report.recovered,
        end_time_clean=horizon,
        end_time_faulted=end_a,
        counters=asdict(faults_a.report),
    )
    return outcome, plan.describe()


def chaos_cells(codes: Sequence[str], **cell_fields) -> list[SweepCell]:
    """One :func:`_chaos_cell` sweep cell per runner in ``codes``: plain
    parameters (``cell_fields``, the same for every runner); the
    inspection is memoised where the cell runs. ``stealing`` that none
    of ``codes`` reads is refused here, before any cell runs."""
    stealing = cell_fields.get("stealing", False)
    api.refuse_unread(cell_config(1, stealing=stealing), codes)
    return [
        SweepCell(key=(name,), fn=_chaos_cell, kwargs=dict(name=name, **cell_fields))
        for name in codes
    ]


def _chaos_reduce(results, codes, **_) -> ChaosResult:
    return ChaosResult(
        plan_description=results[(codes[0],)][1],
        outcomes=[results[(name,)][0] for name in codes],
    )


def run_chaos(jobs: int = 1, progress=None, **params) -> ChaosResult:
    """:data:`CHAOS` run by the experiment driver, with its sweep stats."""
    result, result.sweep_stats = CHAOS.run(jobs, progress, **params)
    return result


def chaos_claims(result: ChaosResult) -> list[ShapeCheck]:
    """Every runner recovers: bitwise, deterministically, faults fired."""
    failed = ", ".join(o.name for o in result.outcomes if not o.ok)
    detail = f"FAILURES DETECTED: {failed}" if failed else "ALL OK"
    return [ShapeCheck("every runner recovers", not failed, detail)]


def chaos_report(result: ChaosResult) -> str:
    """The fault plan, one row per runner, and the claim."""
    rows = [
        [
            o.name,
            "PASS" if o.bitwise_match else "FAIL",
            "PASS" if o.deterministic else "FAIL",
            "yes" if o.faults_recovered else "NO",
            f"{o.end_time_clean:.4f}",
            f"{o.end_time_faulted:.4f}",
            " ".join(
                f"{k}={v}"
                for k, v in sorted(o.counters.items())
                if v and k != "recovery_overhead_s"
            ),
        ]
        for o in result.outcomes
    ]
    headers = ["runner", "bitwise", "determ.", "faults", "clean (s)", "faulted (s)"]
    table = format_table(
        headers + ["recovery counters"],
        rows,
        title="Chaos sweep: recovery under injected faults",
    )
    claims = render_claims(chaos_claims(result))
    return f"fault plan: {result.plan_description}\n\n{table}\n\n{claims}"


#: legacy plus the five PaRSEC variants, one :func:`_chaos_cell` each;
#: ``stealing`` turns the steal policy on wherever a runner reads it, so
#: the triple also exercises the fault x stealing interaction
CHAOS = Experiment(
    name="chaos",
    cells=chaos_cells,
    reduce=_chaos_reduce,
    report=chaos_report,
    claims=chaos_claims,
    defaults=dict(
        scale="tiny",
        codes=("original",) + tuple(sorted(PAPER_VARIANTS)),
        workload="t2_7",
        n_nodes=4,
        cores_per_node=2,
        seed=7,
        fault_seed=2025,
        stealing=False,
    ),
)
