"""Ablation experiments for the design decisions the paper calls out.

:data:`ABLATIONS` (``repro ablations``) is six sweeps in one grid
(:func:`ablation_cells`): the READ priority offset, the chain segment
height, single vs parallel WRITE under a growing mutex cost, NXTVAL vs
static load balancing, the node scheduler policy, and inter-node
stealing on a skewed workload. :data:`COMM` (``repro ablations
--comm``) is the one-sided comm knob matrix (message coalescing ×
remote-block cache) with the bitwise output-equality check the knobs
promise.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.report import format_table
from repro.core import api
from repro.core.variants import V4, V5, VariantSpec
from repro.experiments.calibration import PAPER_MACHINE, PAPER_NODES, cell_config
from repro.experiments.claims import Experiment, ShapeCheck, render_claims
from repro.experiments.sweep import SweepCell
from repro.ga.cache import RemoteCachePolicy
from repro.legacy.runtime import LegacyConfig
from repro.parsec.scheduler import SchedulerPolicy
from repro.sim.cluster import DataMode
from repro.sim.network import CoalescePolicy

__all__ = [
    "ABLATIONS",
    "COMM",
    "ablation_cells",
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


def _ablation_cell(
    scale: str,
    cores_per_node: int,
    n_nodes: int = PAPER_NODES,
    runtime: str = "parsec",
    variant: VariantSpec = V5,
    **config_fields,
) -> tuple[float, int]:
    """One SYNTH t2_7 run; ``config_fields`` are the cell's RunConfig
    knobs. Returns the execution time and the chains stealing moved."""
    config = cell_config(cores_per_node, n_nodes, **config_fields)
    result = api.run(f"t2_7:{scale}", runtime=runtime, variant=variant, config=config)
    return result.execution_time, getattr(result, "chains_migrated", 0)


def ablation_cells(scale: str) -> list[SweepCell]:
    """Every sweep's grid, one cell per run, keyed ``(sweep, label...)``
    in :class:`AblationResult`'s nesting."""
    grid: list[tuple[tuple, dict]] = []  # (key, the cell's arguments)
    # Section IV-C: "a data prefetching pipeline of depth 5*P" from the
    # READ priority offset; 0 removes it (reads no longer outrank GEMMs)
    for offset in (0, 1, 5, 10):
        v4 = V4.with_overrides(name=f"v4.read{offset}", read_offset=offset)
        grid.append((("priority_offsets", offset), dict(cores_per_node=7, variant=v4)))
    # Section IV-A: a chain "can vary from one (maximum parallelism) to
    # the height of the original chain (maximum locality)"
    for height in (1, 2, 4, None):
        label = "full-chain" if height is None else f"height-{height}"
        v4 = V4.with_overrides(name=f"v4.{label}", segment_height=height)
        grid.append((("segment_heights", label), dict(cores_per_node=15, variant=v4)))
    # Section V: v3's extra "system wide operations required to lock and
    # unlock the mutex"; a dearer lock should widen the WRITE gap
    writes = {
        "single-write (v5)": V5,
        "parallel-write": V5.with_overrides(
            name="v5.parallel-write", fused_sort=False, single_write=False
        ),
    }
    for cost in (4.0e-7, 4.0e-6, 4.0e-5):
        machine = PAPER_MACHINE.with_overrides(mutex_lock_s=cost, mutex_unlock_s=cost)
        for label, variant in writes.items():
            run = dict(cores_per_node=15, variant=variant, machine=machine)
            grid.append((("write_organization", f"lock={cost:g}s", label), run))
    # Section IV-D: NXTVAL stealing vs static chains on the legacy code,
    # and PaRSEC's static nodes + dynamic cores (v4)
    for label, use_nxtval in (("nxtval-stealing", True), ("static-cyclic", False)):
        legacy = LegacyConfig(use_nxtval=use_nxtval)
        run = dict(cores_per_node=7, runtime="legacy", legacy=legacy)
        grid.append((("load_balancing", label), run))
    label = "parsec-v4 (static nodes + dynamic cores)"
    grid.append((("load_balancing", label), dict(cores_per_node=7, variant=V4)))
    # "multiple task scheduling algorithms": priority, FIFO, LIFO on v4
    for policy in SchedulerPolicy:
        run = dict(cores_per_node=7, variant=V4, policy=policy)
        grid.append((("scheduler_policies", policy.value), run))
    # static placement vs inter-node stealing with every lengthened chain
    # on node 0 (skew_period == n_nodes), on a compute-bound machine (GEMMs
    # 20x slower): there imbalance shows as makespan, while on the
    # comm-bound workload the benefit filter mostly declines to migrate
    slow = PAPER_MACHINE.with_overrides(gemm_gflops=1.0)
    for n in (2, 4, 8):
        for label, stealing in (("static", False), ("stealing", True)):
            run = dict(scale=below_paper(scale), cores_per_node=2, n_nodes=n)
            run.update(stealing=stealing, machine=slow, skew_factor=6, skew_period=n)
            grid.append((("work_stealing", f"{n} nodes", label), run))
    return [SweepCell(k, _ablation_cell, {"scale": scale, **run}) for k, run in grid]


def _ablations_reduce(results, scale: str) -> AblationResult:
    series: dict = {}
    for (sweep, *outer, label), (time, migrated) in results.items():
        level = series.setdefault(sweep, {})
        for part in outer:
            level = level.setdefault(part, {})
        level[label] = time
        if label == "stealing":
            level["chains_migrated"] = float(migrated)
            level["speedup"] = level["static"] / time
    return AblationResult(scale=scale, **series)


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
#: one workload's knob matrix, (coalescing, cache) -> label; the first
#: is the knobs-off baseline every other cell's output is compared with
_KNOB_LABELS = {
    (False, False): "baseline",
    (True, False): "coalesce",
    (False, True): "cache",
    (True, True): "coalesce+cache",
}


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
        return _KNOB_LABELS[self.coalescing, self.cache]


@dataclass
class CommAblationResult:
    """The full knob matrix with per-workload baselines."""

    scale: str
    rows: list[CommCell]

    def cell(self, workload: str, label: str) -> CommCell:
        for cell in self.rows:
            if (cell.workload, cell.label) == (workload, label):
                return cell
        raise KeyError(f"no {label} cell for {workload!r}")

    def baseline(self, workload: str) -> CommCell:
        return self.cell(workload, "baseline")

    def reduction(self, cell: CommCell) -> float:
        """Fractional wire-message reduction of ``cell`` against its
        workload's baseline."""
        base = self.baseline(cell.workload).wire_messages
        return 1.0 - cell.wire_messages / base if base else 0.0

    def message_savings(self, workload: str) -> float:
        """Fractional wire-message reduction of the both-knobs cell."""
        return self.reduction(self.cell(workload, "coalesce+cache"))


def _comm_cell(
    workload: str,
    scale: str,
    n_nodes: int,
    cores_per_node: int,
    seed: int,
    coalescing: bool,
    cache: bool,
) -> tuple[CommCell, str]:
    """One run of the knob matrix: the cell (``output_equal`` still
    unset) and the sha256 of the gathered output array."""
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
    output = np.ascontiguousarray(workload_obj.output.array.gather())
    return cell, hashlib.sha256(output.tobytes()).hexdigest()


def _comm_cells(workloads: Sequence[str], scale: str, **shared) -> list[SweepCell]:
    return [
        SweepCell(
            key=(workload, label),
            fn=_comm_cell,
            kwargs=dict(
                workload=workload,
                scale=below_paper(scale),
                coalescing=coalescing,
                cache=cache,
                **shared,
            ),
        )
        for workload in workloads
        for (coalescing, cache), label in _KNOB_LABELS.items()
    ]


def _comm_reduce(results, scale: str, **_) -> CommAblationResult:
    """Every cell's ``output_equal``: its output digest is its workload's
    knobs-off digest, bit for bit."""
    rows = []
    for (workload, _), (cell, digest) in results.items():
        cell.output_equal = digest == results[workload, "baseline"][1]
        rows.append(cell)
    return CommAblationResult(scale=below_paper(scale), rows=rows)


def run_comm_ablation(**params) -> CommAblationResult:
    """:data:`COMM` run by the experiment driver."""
    return COMM.run(**params)[0]


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


#: the six design-decision sweeps of ``repro ablations``
ABLATIONS = Experiment(
    name="ablations",
    cells=ablation_cells,
    reduce=_ablations_reduce,
    report=ablations_report,
    claims=ablation_claims,
    defaults=dict(scale="paper"),
    paper_shape=True,
)

#: the comm knob matrix of ``repro ablations --comm``: legacy runtime
#: (its blocking per-tile GETs are the traffic the knobs target), REAL
#: data, at most at small scale
COMM = Experiment(
    name="comm",
    cells=_comm_cells,
    reduce=_comm_reduce,
    report=comm_report,
    claims=comm_claims,
    defaults=dict(
        workloads=("t2_7", "ccsd", "rbgs"),
        scale="tiny",
        n_nodes=4,
        cores_per_node=4,
        seed=7,
    ),
)
