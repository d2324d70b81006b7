"""Chaos demo: crash a node mid-run and still get the same answer.

Runs the t2_7 kernel over PaRSEC (variant v4) three times on a
simulated 4-node cluster with real data:

1. fault-free, to establish the reference tensor and timeline;
2. under a seeded FaultPlan that fails task attempts, drops/delays/
   duplicates messages, slows one node, and crashes another mid-run;
3. under the *same* plan again, to show the whole ordeal — faults,
   retransmissions, re-executions and all — is deterministic.

The faulted runs must finish, report what recovery work they did, and
produce a tensor bitwise identical to the fault-free reference (ordered
accumulation makes the floating-point sums order-independent across
recovery schedules). ``python -m repro chaos`` runs this check across
the legacy runtime and all five variants.

Run:  python examples/chaos_demo.py
"""

import numpy as np

import repro
from repro.core.api import build
from repro.core.variants import V4
from repro.sim.faults import FaultPlan, NodeCrash, Straggler


def run_once(plan=None):
    """One fresh simulated run; returns (i2 tensor, end time, result,
    cluster) — the cluster's ``faults.report`` counts the recovery."""
    workload = build("t2_7:tiny", repro.RunConfig(n_nodes=4, cores_per_node=2))
    cluster = workload.cluster
    # bitwise equivalence needs a canonical accumulation order (float
    # addition is not commutative in rounding); enable it on every run
    workload.i2.array.enable_ordered_accumulation()
    if plan is not None:
        cluster.install_faults(plan)
    result = repro.run(workload, variant=V4)
    return workload.i2.flat_values(), cluster.engine.now, result, cluster


def main() -> None:
    # --- fault-free reference ----------------------------------------
    reference, horizon, clean, _ = run_once()
    print(f"fault-free: {clean.execution_time:.4f}s virtual, {clean.n_tasks} tasks")

    # --- the same run under fire -------------------------------------
    plan = FaultPlan(
        master_seed=2025,
        task_fail_prob=0.05,      # transient task-body failures
        drop_prob=0.04,           # lost on the wire -> retransmitted
        delay_prob=0.04,
        dup_prob=0.03,            # discarded by sequence number
        stragglers=(Straggler(node=2, t_start=0.2 * horizon,
                              t_end=0.7 * horizon, factor=2.5),),
        crashes=(NodeCrash(node=1, at=0.45 * horizon),),
    )
    print(f"fault plan: {plan.describe()}")
    values_a, end_a, _, cluster = run_once(plan)
    report = cluster.faults.report
    print(
        f"faulted:    {end_a:.4f}s virtual — "
        f"{report.task_retries} task retries, "
        f"{report.retransmits} retransmits, "
        f"{report.tasks_reassigned} tasks re-homed off the dead node "
        f"({report.tasks_recomputed} of them mid-flight), "
        f"{report.recovery_overhead_s * 1e6:.1f}us recovery overhead"
    )

    # --- the acceptance checks ---------------------------------------
    values_b, end_b, _, _ = run_once(plan)
    bitwise = np.array_equal(values_a, reference)
    deterministic = end_a == end_b and np.array_equal(values_a, values_b)
    print(f"bitwise match with fault-free reference: {bitwise}")
    print(f"same-seed faulted runs identical:        {deterministic}")
    if not (bitwise and deterministic):
        raise SystemExit("chaos demo FAILED")
    print("recovered, exactly once, deterministically.")


if __name__ == "__main__":
    main()
