"""Ablation experiments for the design decisions the paper calls out.

- :func:`sweep_priority_offsets` — Section IV-C builds a "data
  prefetching pipeline of depth 5*P" with the read offset; sweep it.
- :func:`sweep_segment_height` — Section IV-A: "the height of the
  shorter chains can vary from one (maximum parallelism) to the height
  of the original chain (maximum locality). We consider the two extreme
  cases"; we also run the middle.
- :func:`sweep_write_organization` — Section V's v3-vs-v5 discussion:
  single vs parallel WRITE crossed with the mutex operation cost.
- :func:`compare_load_balancing` — Section IV-D: NXTVAL global work
  stealing vs static round-robin, on the legacy runtime where both are
  expressible.
- :func:`compare_work_stealing` — the static chain placement vs the
  inter-node steal layer (:mod:`repro.parsec.stealing`) on a skewed
  workload, across node counts.
- :func:`run_comm_ablation` — the one-sided comm optimizations
  (message coalescing × remote-block cache) across workloads, with the
  bitwise output-equality check the knobs promise.

``repro ablations`` runs the first six (:func:`run_ablations`), ``--comm``
the last; each has a report and a claims function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.analysis.report import format_table
from repro.core import api
from repro.core.variants import V4, V5, VariantSpec
from repro.experiments.calibration import PAPER_MACHINE, PAPER_NODES, cell_config
from repro.experiments.claims import ShapeCheck, render_claims
from repro.ga.cache import RemoteCachePolicy
from repro.legacy.runtime import LegacyConfig
from repro.parsec.scheduler import SchedulerPolicy
from repro.sim.cluster import DataMode
from repro.sim.cost import MachineModel
from repro.sim.network import CoalescePolicy

__all__ = [
    "sweep_priority_offsets",
    "sweep_segment_height",
    "sweep_write_organization",
    "compare_load_balancing",
    "compare_scheduler_policies",
    "compare_work_stealing",
    "run_ablations",
    "ablations_report",
    "ablation_claims",
    "AblationResult",
    "run_comm_ablation",
    "comm_report",
    "comm_claims",
    "CommAblationResult",
    "CommCell",
    "MIN_MESSAGE_SAVINGS",
]

#: the both-knobs cell of the comm matrix must cut at least this share of
#: each workload's wire messages (measured: 20-56% at tiny and small)
MIN_MESSAGE_SAVINGS = 0.20


def below_paper(scale: str) -> str:
    """``scale``, with tiny in place of paper/full: the REAL-data comm
    matrix and the stealing comparison run at most at small scale."""
    return "tiny" if scale in ("paper", "full") else scale


def _t2_7_run(
    scale: str,
    cores_per_node: int,
    n_nodes: int = PAPER_NODES,
    runtime: str = "parsec",
    variant: VariantSpec = V5,
    **config_fields,
):
    """One SYNTH t2_7 run; ``config_fields`` are the cell's RunConfig knobs."""
    config = cell_config(cores_per_node, n_nodes, **config_fields)
    return api.run(f"t2_7:{scale}", runtime=runtime, variant=variant, config=config)


def sweep_priority_offsets(
    offsets: Sequence[int] = (0, 1, 5, 10),
    scale: str = "paper",
    cores_per_node: int = 7,
) -> dict[int, float]:
    """Execution time of v4 as the READ priority offset varies.

    Offset 0 removes the prefetch pipeline (reads no longer outrank
    GEMMs); the paper's +5 gives depth 5*P.
    """
    out: dict[int, float] = {}
    for offset in offsets:
        variant = V4.with_overrides(name=f"v4.read{offset}", read_offset=offset)
        out[offset] = _t2_7_run(
            scale, cores_per_node, variant=variant
        ).execution_time
    return out


def sweep_segment_height(
    heights: Sequence[Optional[int]] = (1, 2, 4, None),
    scale: str = "paper",
    cores_per_node: int = 15,
) -> dict[str, float]:
    """Execution time of the v4 organization across chain heights.

    ``None`` is the original full chain (v1's GEMM organization);
    ``1`` is full parallelism (v4's).
    """
    out: dict[str, float] = {}
    for height in heights:
        label = "full-chain" if height is None else f"height-{height}"
        variant = V4.with_overrides(name=f"v4.{label}", segment_height=height)
        out[label] = _t2_7_run(
            scale, cores_per_node, variant=variant
        ).execution_time
    return out


def sweep_write_organization(
    mutex_costs: Sequence[float] = (4.0e-7, 4.0e-6, 4.0e-5),
    scale: str = "paper",
    cores_per_node: int = 15,
) -> dict[str, dict[str, float]]:
    """Single vs parallel WRITE as the mutex op cost grows.

    The paper attributes part of v5's win over v3 to v3's extra
    "system wide operations required to lock and unlock the mutex";
    raising the lock cost should widen that gap.
    """
    variants = {
        "single-write (v5)": V5,
        "parallel-write": V5.with_overrides(
            name="v5.parallel-write", fused_sort=False, single_write=False
        ),
    }
    out: dict[str, dict[str, float]] = {}
    for cost in mutex_costs:
        machine = PAPER_MACHINE.with_overrides(
            mutex_lock_s=cost, mutex_unlock_s=cost
        )
        out[f"lock={cost:g}s"] = {
            label: _t2_7_run(
                scale, cores_per_node, variant=variant, machine=machine
            ).execution_time
            for label, variant in variants.items()
        }
    return out


def compare_scheduler_policies(
    scale: str = "paper", cores_per_node: int = 7, n_nodes: int = PAPER_NODES
) -> dict[str, float]:
    """PaRSEC's scheduling disciplines on the v4 workload.

    "PaRSEC includes multiple task scheduling algorithms" — the
    priority-aware default vs FIFO (no priorities honoured) vs LIFO
    (newest-first, cache-oriented).
    """
    return {
        policy.value: _t2_7_run(
            scale, cores_per_node, n_nodes, variant=V4, policy=policy
        ).execution_time
        for policy in SchedulerPolicy
    }


def compare_load_balancing(
    scale: str = "paper", cores_per_node: int = 7, n_nodes: int = PAPER_NODES
) -> dict[str, float]:
    """NXTVAL work stealing vs static rank-cyclic chains (legacy code).

    Also reports the PaRSEC approach (static round-robin across nodes +
    dynamic within node, v4) on the same workload for context.
    """
    out: dict[str, float] = {}
    for label, use_nxtval in (("nxtval-stealing", True), ("static-cyclic", False)):
        out[label] = _t2_7_run(
            scale,
            cores_per_node,
            n_nodes,
            runtime="legacy",
            legacy=LegacyConfig(use_nxtval=use_nxtval),
        ).execution_time
    out["parsec-v4 (static nodes + dynamic cores)"] = _t2_7_run(
        scale, cores_per_node, n_nodes, variant=V4
    ).execution_time
    return out


def compare_work_stealing(
    scale: str = "tiny",
    node_counts: Sequence[int] = (2, 4, 8),
    cores_per_node: int = 2,
    skew_factor: int = 6,
    machine: Optional[MachineModel] = None,
) -> dict[str, dict[str, float]]:
    """Static placement vs inter-node stealing on a skewed workload.

    ``skew_period == n_nodes`` parks every lengthened chain on node 0
    under the round-robin placement — the worst case for the paper's
    static distribution. The machine defaults to a compute-bound
    calibration (GEMMs an order of magnitude slower than the paper's)
    because that is the regime where imbalance shows as makespan; on
    the comm-bound tiny workload the benefit filter mostly declines to
    migrate and both columns converge.
    """
    if machine is None:
        machine = PAPER_MACHINE.with_overrides(gemm_gflops=1.0)
    out: dict[str, dict[str, float]] = {}
    for n_nodes in node_counts:
        row: dict[str, float] = {}
        for label, stealing in (("static", False), ("stealing", True)):
            result = _t2_7_run(
                scale,
                cores_per_node,
                n_nodes,
                stealing=stealing,
                machine=machine,
                skew_factor=skew_factor,
                skew_period=n_nodes,
            )
            row[label] = result.execution_time
            if stealing:
                row["chains_migrated"] = float(result.chains_migrated)
        row["speedup"] = row["static"] / row["stealing"]
        out[f"{n_nodes} nodes"] = row
    return out


@dataclass
class AblationResult:
    """The six design-decision sweeps of ``repro ablations``."""

    scale: str
    priority_offsets: dict[int, float]
    segment_heights: dict[str, float]
    write_organization: dict[str, dict[str, float]]
    load_balancing: dict[str, float]
    scheduler_policies: dict[str, float]
    #: run at :func:`below_paper` of ``scale``
    work_stealing: dict[str, dict[str, float]]


def run_ablations(scale: str = "paper") -> AblationResult:
    """Every sweep at its default grid."""
    return AblationResult(
        scale=scale,
        priority_offsets=sweep_priority_offsets(scale=scale),
        segment_heights=sweep_segment_height(scale=scale),
        write_organization=sweep_write_organization(scale=scale),
        load_balancing=compare_load_balancing(scale=scale),
        scheduler_policies=compare_scheduler_policies(scale=scale),
        work_stealing=compare_work_stealing(scale=below_paper(scale)),
    )


def ablation_claims(result: AblationResult) -> list[ShapeCheck]:
    """The paper's reading of each Section IV design decision."""
    off0, off5 = result.priority_offsets[0], result.priority_offsets[5]
    h1, full = result.segment_heights["height-1"], result.segment_heights["full-chain"]
    write = result.write_organization["lock=4e-05s"]
    one, many = write["single-write (v5)"], write["parallel-write"]
    prio, fifo = (result.scheduler_policies[k] for k in ("priority", "fifo"))
    balance = result.load_balancing
    parsec = balance["parsec-v4 (static nodes + dynamic cores)"]
    legacy = min(balance["nxtval-stealing"], balance["static-cyclic"])
    claims = [
        ("read offset +5 no slower than +0", off5 <= off0, off5, off0),
        ("height-1 chains faster than the full chain", h1 < full, h1, full),
        ("single WRITE no slower than parallel at lock=4e-05s", one <= many, one, many),
        ("priority no slower than 1.02x FIFO", prio <= fifo * 1.02, prio, fifo),
        ("PaRSEC-v4 faster than both legacy codes", parsec < legacy, parsec, legacy),
    ]
    return [ShapeCheck(name, ok, f"{a:.4g}s vs {b:.4g}s") for name, ok, a, b in claims]


def ablations_report(result: AblationResult) -> str:
    """One table per sweep, and the claims."""

    def times(series: dict) -> list[list[str]]:
        return [[label, f"{t:.3f}"] for label, t in series.items()]

    offsets = {f"+{k}": v for k, v in sorted(result.priority_offsets.items())}
    tables = [
        (
            "READ priority offset (v4, 7 cores/node)",
            ["read offset", "time (s)"],
            times(offsets),
        ),
        (
            "GEMM chain segment height (15 cores/node)",
            ["chain height", "time (s)"],
            times(result.segment_heights),
        ),
        (
            "WRITE organization vs mutex cost (15 cores/node)",
            ["mutex op cost", "single WRITE (v5)", "parallel WRITEs"],
            [
                [k, f"{v['single-write (v5)']:.3f}", f"{v['parallel-write']:.3f}"]
                for k, v in result.write_organization.items()
            ],
        ),
        (
            "Load balancing (7 cores/node)",
            ["strategy", "time (s)"],
            times(result.load_balancing),
        ),
        (
            "Scheduler policy (v4, 7 cores/node)",
            ["policy", "time (s)"],
            times(result.scheduler_policies),
        ),
        (
            "Inter-node work stealing vs static placement (skewed "
            f"{below_paper(result.scale)} workload, v5, compute-bound machine)",
            ["nodes", "static (s)", "stealing (s)", "speedup", "chains moved"],
            [
                [k, f"{row['static']:.6f}", f"{row['stealing']:.6f}"]
                + [f"{row['speedup']:.2f}x", f"{int(row['chains_migrated'])}"]
                for k, row in result.work_stealing.items()
            ],
        ),
    ]
    rendered = [format_table(h, rows, title=title) for title, h, rows in tables]
    return "\n\n".join(rendered + [render_claims(ablation_claims(result))])


# ----------------------------------------------------------------------
# one-sided comm optimizations (coalescing × remote-block cache)
# ----------------------------------------------------------------------
@dataclass
class CommCell:
    """One knob combination on one workload."""

    workload: str
    coalescing: bool
    cache: bool
    execution_time: float
    wire_messages: int
    bytes_fetched: float
    cache_hits: int
    cache_bytes_saved: float
    coalesced_batches: int
    messages_saved: int
    output_equal: bool

    @property
    def label(self) -> str:
        if self.coalescing and self.cache:
            return "coalesce+cache"
        if self.coalescing:
            return "coalesce"
        if self.cache:
            return "cache"
        return "baseline"


@dataclass
class CommAblationResult:
    """The full knob matrix with per-workload baselines."""

    scale: str
    rows: list[CommCell]

    def baseline(self, workload: str) -> CommCell:
        for cell in self.rows:
            if cell.workload == workload and not cell.coalescing and not cell.cache:
                return cell
        raise KeyError(f"no baseline cell for {workload!r}")

    def reduction(self, cell: CommCell) -> float:
        """Fractional wire-message reduction of ``cell`` against its
        workload's baseline."""
        base = self.baseline(cell.workload).wire_messages
        return 1.0 - cell.wire_messages / base if base else 0.0

    def message_savings(self, workload: str) -> float:
        """Fractional wire-message reduction of the both-knobs cell."""
        for cell in self.rows:
            if cell.workload == workload and cell.coalescing and cell.cache:
                return self.reduction(cell)
        raise KeyError(f"no coalesce+cache cell for {workload!r}")


def _comm_cell(
    workload: str,
    scale: str,
    n_nodes: int,
    cores_per_node: int,
    seed: int,
    coalescing: bool,
    cache: bool,
):
    """One run of the knob matrix; returns (cell sans equality, output)."""
    config = cell_config(
        cores_per_node,
        n_nodes,
        DataMode.REAL,
        seed=seed,
        coalescing=CoalescePolicy() if coalescing else None,
        remote_cache=RemoteCachePolicy() if cache else None,
    )
    workload_obj = api.build(f"{workload}:{scale}", config)
    # canonical accumulation order makes the FP sums bitwise-stable
    # under the timing perturbation the knobs introduce — the same
    # mechanism the chaos harness uses under fault delays
    workload_obj.output.array.enable_ordered_accumulation()
    result = api.run(workload_obj, runtime="legacy", config=config)
    ga = workload_obj.ga
    cell = CommCell(
        workload=workload,
        coalescing=coalescing,
        cache=cache,
        execution_time=result.execution_time,
        wire_messages=workload_obj.cluster.network.remote_messages,
        bytes_fetched=ga.bytes_fetched,
        cache_hits=ga.cache_hits,
        cache_bytes_saved=ga.cache_bytes_saved,
        coalesced_batches=ga.coalesced_batches,
        messages_saved=ga.messages_saved,
        output_equal=True,
    )
    return cell, workload_obj.output.array.gather()


def run_comm_ablation(
    workloads: Sequence[str] = ("t2_7", "ccsd", "rbgs"),
    scale: str = "tiny",
    n_nodes: int = 4,
    cores_per_node: int = 4,
    seed: int = 7,
) -> CommAblationResult:
    """The knob matrix (coalescing × cache) over the given workloads.

    Every cell runs the legacy runtime in REAL data mode and gathers
    the workload's output array; ``output_equal`` records whether the
    knobs-on bytes match the knobs-off baseline bit for bit. Uses the
    legacy runtime because its blocking per-tile GETs are the traffic
    pattern the knobs target (the paper's original-code regime).
    """
    rows: list[CommCell] = []
    for workload in workloads:
        reference = None
        for coalescing, cache in (
            (False, False),
            (True, False),
            (False, True),
            (True, True),
        ):
            cell, output = _comm_cell(
                workload, scale, n_nodes, cores_per_node, seed, coalescing, cache
            )
            if reference is None:
                reference = output
            else:
                cell.output_equal = bool(np.array_equal(reference, output))
            rows.append(cell)
    return CommAblationResult(scale=scale, rows=rows)


def comm_claims(result: CommAblationResult) -> list[ShapeCheck]:
    """The knobs change no output bit, and cut enough wire messages."""
    knobs_on = [cell for cell in result.rows if cell.coalescing or cell.cache]
    diverged = sum(not cell.output_equal for cell in knobs_on)
    detail = f"{diverged} of {len(knobs_on)} runs diverged"
    checks = [ShapeCheck("knobs-on output bitwise-equal", diverged == 0, detail)]
    for cell in knobs_on:
        if cell.coalescing and cell.cache:
            savings = result.reduction(cell)
            checks.append(
                ShapeCheck(
                    f"{cell.workload}: coalesce+cache cuts wire messages by "
                    f">= {MIN_MESSAGE_SAVINGS:.0%}",
                    savings >= MIN_MESSAGE_SAVINGS,
                    f"{savings:.1%} fewer wire messages",
                )
            )
    return checks


def comm_report(result: CommAblationResult) -> str:
    """The knob matrix, one row per cell, and the claims."""
    rows = [
        [
            cell.workload,
            cell.label,
            f"{cell.execution_time:.6f}",
            f"{cell.wire_messages}",
            f"{result.reduction(cell) * 100:5.1f}%",
            f"{cell.bytes_fetched:.0f}",
            f"{cell.cache_hits}",
            f"{cell.coalesced_batches}",
            f"{cell.messages_saved}",
            "yes" if cell.output_equal else "NO",
        ]
        for cell in result.rows
    ]
    headers = ["workload", "knobs", "time (s)", "wire msgs", "reduction"]
    headers += ["bytes fetched", "cache hits", "batches", "msgs saved", "output equal"]
    title = f"One-sided comm optimizations ({result.scale} scale, legacy runtime)"
    table = format_table(headers, rows, title=title)
    return f"{table}\n{render_claims(comm_claims(result))}"
