"""The four in-process workloads (``serve_mixed`` is in ``serve_load``).

Each workload has a ``setup`` (everything before the first timed op;
repeatable, so ``setup_s`` can be a median), an untraced ``run`` that
calls the facades, and a ``run_traced`` that drives the same cells
through :mod:`stepwise` under spans. An *op* is one simulation cell.

Sizes: ``full`` is what the benchmark measures; ``smoke`` (<2 s per
workload) exists for the self-test. Shrinking follows the rule in each
class docstring — never a different scale preset for ``full``.
"""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import repro
from repro.core import api
from repro.core.inspector import inspect_subroutine
from repro.core.ptg_build import build_ccsd_ptg
from repro.core.variants import V5
from repro.experiments.ablations import run_comm_ablation
from repro.experiments.calibration import make_cluster, make_workload
from repro.experiments.chaos import run_chaos
from repro.experiments.fig9 import run_point
from repro.sim.cluster import DataMode
from repro.tce.reference import correlation_energy

from . import probes, stepwise
from .spans import Tracer, calibrated, count_by_name, total_by_name

#: the paper's "agree to the 14th digit" claim, as a relative tolerance
ENERGY_RTOL = 1e-13

#: every fault plan is drawn from this, not from ``--seed``: which node
#: crashes and how much is recomputed moves a chaos cell's wall time and
#: peak RSS (500-800 MB across 20 plans), which would read as run-to-run
#: spread; and fixed plans let ``expected.json`` pin the faulted runs too
FAULT_SEED = 7


@dataclass
class Op:
    """One simulation cell (or service job) and what it produced."""

    id: str
    #: host seconds (raw as recorded; the child reads them off the
    #: calibrated clock afterwards); None where the facade only times a
    #: group of cells
    wall_s: Optional[float]
    #: simulated work in this op: workload IR ``n_gemms`` x simulations
    n_gemms: int
    #: simulated results; none of them depends on ``--seed``, which only
    #: draws tensor data and job order (fault plans use FAULT_SEED)
    virt: dict = field(default_factory=dict)
    #: built-in checks, name -> passed
    checks: dict = field(default_factory=dict)
    #: simulated seconds of the op's fault-free simulations
    virt_s: float = 0.0
    #: ``perf_counter`` stamp of the op's start, where the harness took it
    t0: Optional[float] = None


def warm_up() -> None:
    """One untimed op so lazy imports and NumPy/BLAS start-up are paid
    before the first timed op."""
    repro.run(
        "t2_7:tiny",
        runtime="v5",
        config=api.RunConfig(n_nodes=4, cores_per_node=2),
    )


def ir_gemms(token: str, n_nodes: int = 1) -> int:
    """GEMMs in the workload IR — the same for every runtime."""
    workload = make_workload(make_cluster(1, n_nodes=n_nodes), workload=token)
    return sum(level.n_gemms for level in workload.levels())


def _virt(result) -> dict:
    """Host-independent outcome of one ``repro.run``."""
    out = {"execution_time": result.execution_time, "n_tasks": result.n_tasks}
    messages = getattr(result, "messages_remote", None)
    if messages is not None:
        out["messages_remote"] = messages
    counters = (result.metrics or {}).get("counters", {})
    for name in ("net.remote_messages", "ga.gets", "ga.accs", "nxtval.requests"):
        if name in counters:
            out[name] = counters[name]
    return out


def _run_op(op_id: str, t0: float, t1: float, n_gemms: int, result, **checks) -> Op:
    """The op for one ``repro.run``-shaped result."""
    return Op(
        op_id,
        t1 - t0,
        n_gemms,
        _virt(result),
        checks=checks,
        virt_s=result.execution_time,
        t0=t0,
    )


class Workload:
    """What the child drives; subclasses fill in the cells."""

    name = ""
    SIZES: dict = {}

    def __init__(self, size: str, seed: int, clock) -> None:
        self.size = size
        self.seed = seed
        self.p = self.SIZES[size]
        #: the calibrated clock (calibrate.HostClock) of this child
        self.clock = clock

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> list[Op]:
        """The untraced body. Implementations drop each op's result before
        the next op starts: a finished run keeps its cluster, task graph
        and (REAL) up to 2 GB of payloads alive, and a collector that has
        to walk them would charge one op's garbage to the next."""
        raise NotImplementedError

    def run_traced(self, tracer: Tracer) -> list[Op]:
        raise NotImplementedError

    def finalize(self, ops: list[Op]) -> None:
        """Cross-op checks, once every op has run."""

    def scoped_metrics(self, ops: list[Op], wall_s: float) -> dict:
        """End-to-end metrics only this workload has."""
        return {}

    def layer_metrics(self, spans: list[dict], ops: list[Op]) -> dict:
        """Per-layer metrics only this workload measures (traced run);
        ``spans`` and the ops' ``wall_s`` are already calibrated."""
        return {}

    def teardown(self) -> None:
        pass

    def cpu_now(self) -> float:
        t = os.times()
        return t.user + t.system + t.children_user + t.children_system

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Fig9PaperSynth(Workload):
    """Figure 9 at the paper's size: t2_7 on 32 nodes, SYNTH, registry off.

    Shrink rule: drop codes ``v2`` and ``v4``. Applied, and ``v3`` with
    them, so the body fits the driver's time cap: what stays is the
    legacy code, the full-chain variant and the final variant (v2..v4
    differ from v5 in priorities and WRITE/SORT organisation only).
    """

    name = "fig9_paper_synth"
    SIZES = {
        "full": dict(
            scale="paper",
            n_nodes=32,
            codes=("original", "v1", "v5"),
            cores=(7, 15),
        ),
        "smoke": dict(
            scale="tiny", n_nodes=4, codes=("original", "v1", "v5"), cores=(1, 2)
        ),
    }

    def setup(self) -> None:
        p = self.p
        self.cache = api.precompute_inspection(
            p["scale"], p["n_nodes"], codes=p["codes"], seed=self.seed
        )
        self.n_gemms = ir_gemms(f"t2_7:{p['scale']}", p["n_nodes"])
        warm_up()

    def _cells(self):
        return [(code, cores) for code in self.p["codes"] for cores in self.p["cores"]]

    def run(self) -> list[Op]:
        p = self.p
        ops = []
        for code, cores in self._cells():
            start = time.perf_counter()
            virtual = run_point(
                code,
                cores,
                scale=p["scale"],
                n_nodes=p["n_nodes"],
                seed=self.seed,
                inspection_cache=self.cache,
            )
            wall = time.perf_counter() - start
            virt = {"execution_time": virtual}
            op_id = f"{code}@{cores}"
            ops.append(Op(op_id, wall, self.n_gemms, virt, virt_s=virtual, t0=start))
        return ops

    def run_traced(self, tracer: Tracer) -> list[Op]:
        p = self.p
        ops = []
        for code, cores in self._cells():
            op_id = f"{code}@{cores}"
            with tracer.span("harness.op", op=op_id) as span:
                workload = stepwise.build(
                    tracer,
                    f"t2_7:{p['scale']}",
                    n_nodes=p["n_nodes"],
                    cores_per_node=cores,
                    data_mode=DataMode.SYNTH,
                    seed=self.seed,
                )
                cache = None if code == "original" else self.cache
                result = stepwise.execute(tracer, workload, code, cache=cache)
            ops.append(_run_op(op_id, span["start"], span["end"], self.n_gemms, result))
            del workload, result  # see Workload.run
        return ops

    def scoped_metrics(self, ops: list[Op], wall_s: float) -> dict:
        by_id = {op.id: op.virt["execution_time"] for op in ops}
        low, high = self.p["cores"][0], self.p["cores"][-1]
        return {"virt_v5_speedup": by_id[f"original@{low}"] / by_id[f"v5@{high}"]}

    def layer_metrics(self, spans: list[dict], ops: list[Op]) -> dict:
        return probes.engine_probes()


class CcsdSmallReal(Workload):
    """A whole CCSD iteration with real numerics, registry on.

    Shrink rule: drop ``dtd``. Applied, so the body fits the driver's
    time cap; the DTD runtime is timed on ``rbgs_ladder_synth``.
    """

    name = "ccsd_small_real"
    SIZES = {
        "full": dict(token="ccsd:small", n_nodes=8, cores=4, runtimes=("legacy", "v5")),
        "smoke": dict(token="ccsd:tiny", n_nodes=4, cores=2, runtimes=("legacy", "v5")),
    }

    def setup(self) -> None:
        p = self.p
        cluster = make_cluster(
            p["cores"], n_nodes=p["n_nodes"], data_mode=DataMode.REAL
        )
        workload = make_workload(cluster, workload=p["token"], seed=self.seed)
        reference = workload.reference_values()
        self.n_gemms = sum(level.n_gemms for level in workload.levels())
        self.ref_energy = correlation_energy(reference)
        # the energy probe is a random linear functional of the output, so
        # it can land near zero; measure agreement against the larger of
        # the energy and the output's rms (the probe's standard deviation)
        self.energy_scale = max(
            abs(self.ref_energy), float(np.sqrt(np.mean(reference**2)))
        )
        self.energies: dict[str, float] = {}
        warm_up()

    def _config(self, **overrides) -> dict:
        p = self.p
        return dict(
            n_nodes=p["n_nodes"],
            cores_per_node=p["cores"],
            data_mode=DataMode.REAL,
            seed=self.seed,
            **overrides,
        )

    def _op(self, runtime: str, t0: float, t1: float, result) -> Op:
        energy = correlation_energy(result.output.flat_values())
        self.energies[runtime] = energy
        off = abs(energy - self.ref_energy) / self.energy_scale
        return _run_op(
            runtime,
            t0,
            t1,
            self.n_gemms,
            result,
            energy_matches_reference=bool(off <= ENERGY_RTOL),
        )

    def run(self) -> list[Op]:
        ops = []
        for runtime in self.p["runtimes"]:
            start = time.perf_counter()
            result = repro.run(
                self.p["token"],
                runtime=runtime,
                config=api.RunConfig(metrics=True, **self._config()),
            )
            ops.append(self._op(runtime, start, time.perf_counter(), result))
            del result
        return ops

    def run_traced(self, tracer: Tracer) -> list[Op]:
        ops = []
        for runtime in self.p["runtimes"]:
            with tracer.span("harness.op", op=runtime) as span:
                result = stepwise.run_token(
                    tracer, self.p["token"], runtime, **self._config()
                )
            ops.append(self._op(runtime, span["start"], span["end"], result))
            del result
        return ops

    def finalize(self, ops: list[Op]) -> None:
        values = list(self.energies.values())
        agree = max(values) - min(values) <= ENERGY_RTOL * self.energy_scale
        for op in ops:
            op.checks["energies_agree_across_runtimes"] = bool(agree)

    def layer_metrics(self, spans: list[dict], ops: list[Op]) -> dict:
        real = sum(
            s["end"] - s["start"]
            for s in spans
            if s["name"] == "parsec.execute" and s["op"] == "v5"
        )
        scratch = Tracer()
        stepwise.run_token(
            scratch,
            self.p["token"],
            "v5",
            **{**self._config(), "data_mode": DataMode.SYNTH},
        )
        synth = total_by_name(calibrated(scratch.spans, self.clock), "parsec.execute")
        out = probes.ga_probes()
        out["tce.numerics_share"] = 1.0 - synth / real
        return out


class RbgsLadderSynth(Workload):
    """Node-count ladder at fixed work per node: red-black Gauss-Seidel,
    SYNTH, registry on.

    The issue sized it at 64 tiles per node (16x16, 32x32, 64x64); it
    runs at 36 per node so the body fits the driver's time cap. The
    ladder's shape — 4, 16, 64 nodes, equal work per node — is unchanged.
    """

    name = "rbgs_ladder_synth"
    RUNTIMES = ("legacy", "v5", "dtd")
    #: rung name -> (nodes, grid); 36 tiles per node at ``full``
    SIZES = {
        "full": dict(rungs={"n4": (4, 12), "n16": (16, 24), "n64": (64, 48)}, cores=4),
        "smoke": dict(rungs={"n4": (4, 4), "n16": (16, 8), "n64": (64, 16)}, cores=4),
    }

    def setup(self) -> None:
        self.n_gemms = {
            rung: ir_gemms(f"rbgs:{grid}x{grid}")
            for rung, (_, grid) in self.p["rungs"].items()
        }
        warm_up()

    def _cells(self):
        for rung, (n_nodes, grid) in self.p["rungs"].items():
            for runtime in self.RUNTIMES:
                yield rung, n_nodes, f"rbgs:{grid}x{grid}", runtime

    def _config(self, n_nodes: int, **overrides) -> dict:
        return dict(
            n_nodes=n_nodes,
            cores_per_node=self.p["cores"],
            data_mode=DataMode.SYNTH,
            seed=self.seed,
            **overrides,
        )

    def run(self) -> list[Op]:
        ops = []
        for rung, n_nodes, token, runtime in self._cells():
            start = time.perf_counter()
            result = repro.run(
                token,
                runtime=runtime,
                config=api.RunConfig(metrics=True, **self._config(n_nodes)),
            )
            end = time.perf_counter()
            op_id = f"{rung}.{runtime}"
            ops.append(_run_op(op_id, start, end, self.n_gemms[rung], result))
            del result
        return ops

    def run_traced(self, tracer: Tracer) -> list[Op]:
        ops = []
        for rung, n_nodes, token, runtime in self._cells():
            op_id = f"{rung}.{runtime}"
            with tracer.span("harness.op", op=op_id) as span:
                result = stepwise.run_token(
                    tracer, token, runtime, **self._config(n_nodes)
                )
            ops.append(
                _run_op(op_id, span["start"], span["end"], self.n_gemms[rung], result)
            )
            del result
        return ops

    def layer_metrics(self, spans: list[dict], ops: list[Op]) -> dict:
        out = {}
        walls = {op.id: op.wall_s for op in ops}
        for runtime in self.RUNTIMES:
            for rung in self.p["rungs"]:
                out[f"ladder.us_per_gemm.{runtime}.{rung}"] = (
                    1e6 * walls[f"{rung}.{runtime}"] / self.n_gemms[rung]
                )
            out[f"ladder.cost_ratio.{runtime}"] = (
                out[f"ladder.us_per_gemm.{runtime}.n64"]
                / out[f"ladder.us_per_gemm.{runtime}.n16"]
            )
        out["sim.cluster_build_ms.n64"] = 1e3 * min(
            s["end"] - s["start"]
            for s in spans
            if s["name"] == "sim.cluster_build" and s["op"].startswith("n64.")
        )
        # registry and tracing cost on one cell (rung n16, v5): the three
        # settings interleaved, best of three each, since one ~0.5 s run
        # on this host is good to about 20%
        n_nodes, grid = self.p["rungs"]["n16"]
        token = f"rbgs:{grid}x{grid}"
        settings = {
            "plain": dict(metrics=False),
            "registry": dict(metrics=True),
            "trace": dict(metrics=True, trace=True),
        }
        best = dict.fromkeys(settings, float("inf"))
        for _ in range(probes.REPEATS):
            for name, overrides in settings.items():
                scratch = Tracer()
                stepwise.run_token(
                    scratch, token, "v5", **self._config(n_nodes, **overrides)
                )
                wall = total_by_name(
                    calibrated(scratch.spans, self.clock), "parsec.execute"
                )
                best[name] = min(best[name], wall)
        out["obs.metrics_overhead_ratio"] = best["registry"] / best["plain"]
        out["obs.trace_overhead_ratio"] = best["trace"] / best["registry"]
        # PTG instantiation alone, as bench_micro times it
        workload = stepwise.build(Tracer(), token, **self._config(n_nodes))
        level = workload.levels()[0]
        md = inspect_subroutine(level, workload.cluster, V5)
        ptg = build_ccsd_ptg(V5, md)
        start = time.perf_counter()
        ptg.instantiate(md, n_nodes)
        out["core.ptg_instantiate_s"] = self.clock.between(start, time.perf_counter())
        return out


class KnobsChaosSmall(Workload):
    """Every knob-on twin path: faults + retransmit, stealing, message
    coalescing, remote-block cache, ordered accumulation.

    Shrink rule: drop ``ccsd:tiny`` from the comm matrix. Applied, so the
    body fits the driver's time cap.
    """

    name = "knobs_chaos_small"
    NODES = 4
    SIZES = {
        "full": dict(
            scale="small",
            chaos=(("t2_7", True, None), ("rbgs", True, None), ("rbgs", False, None)),
            comm=("t2_7:small", "rbgs:small"),
        ),
        "smoke": dict(
            scale="tiny",
            chaos=(
                ("t2_7", True, ("original", "v5")),
                ("rbgs", True, ("v5",)),
                ("rbgs", False, ("v5",)),
            ),
            comm=("rbgs:tiny",),
        ),
    }
    KNOBS = (
        ("baseline", False, False),
        ("coalesce", True, False),
        ("cache", False, True),
        ("coalesce+cache", True, True),
    )
    #: the comm knobs promise at least this share of wire messages saved
    MIN_SAVINGS = 0.20

    def setup(self) -> None:
        scale = self.p["scale"]
        tokens = {f"{wl}:{scale}" for wl, _, _ in self.p["chaos"]} | set(self.p["comm"])
        self.n_gemms = {token: ir_gemms(token) for token in tokens}
        warm_up()

    @staticmethod
    def _chaos_id(workload: str, stealing: bool, name: str) -> str:
        return f"chaos.{workload}.{'steal' if stealing else 'static'}.{name}"

    def _chaos_op(self, op_id, token, wall, outcome: dict, t0=None) -> Op:
        return Op(
            op_id,
            wall,
            3 * self.n_gemms[token],
            virt={
                "end_time_clean": outcome["end_time_clean"],
                "end_time_faulted": outcome["end_time_faulted"],
                "counters": outcome["counters"],
            },
            checks={
                k: outcome[k]
                for k in ("bitwise_match", "deterministic", "faults_recovered")
            },
            virt_s=outcome["end_time_clean"],
            t0=t0,
        )

    def _comm_op(self, token, label, cell: dict, equal: bool, savings) -> Op:
        keys = ("execution_time", "wire_messages", "bytes_fetched", "cache_hits")
        keys += ("coalesced_batches", "messages_saved")
        op = Op(
            f"comm.{token.split(':')[0]}.{label}",
            None,
            self.n_gemms[token],
            virt={k: cell[k] for k in keys},
            checks={"output_equal": equal},
            virt_s=cell["execution_time"],
        )
        if savings is not None:
            op.checks["messages_saved_ge_20pct"] = savings >= self.MIN_SAVINGS
        return op

    def run(self) -> list[Op]:
        scale = self.p["scale"]
        ops = []
        for workload, stealing, codes in self.p["chaos"]:
            result = run_chaos(
                scale=scale,
                n_nodes=self.NODES,
                cores_per_node=2,
                seed=self.seed,
                fault_seed=FAULT_SEED,
                jobs=1,
                stealing=stealing,
                codes=list(codes) if codes else None,
                workload=workload,
            )
            for outcome in result.outcomes:
                ops.append(
                    self._chaos_op(
                        self._chaos_id(workload, stealing, outcome.name),
                        f"{workload}:{scale}",
                        result.sweep_stats.cell_wall_s[outcome.name],
                        vars(outcome),
                    )
                )
        for token in self.p["comm"]:
            workload, comm_scale = token.split(":")
            result = run_comm_ablation(
                workloads=(workload,), scale=comm_scale, seed=self.seed
            )
            for cell in result.rows:
                both = cell.coalescing and cell.cache
                ops.append(
                    self._comm_op(
                        token,
                        cell.label,
                        vars(cell),
                        cell.output_equal,
                        result.message_savings(workload) if both else None,
                    )
                )
        return ops

    def run_traced(self, tracer: Tracer) -> list[Op]:
        scale = self.p["scale"]
        ops = []
        for workload, stealing, codes in self.p["chaos"]:
            names = list(codes) if codes else ["original", "v1", "v2", "v3", "v4", "v5"]
            token = f"{workload}:{scale}"
            parsec = [n for n in names if n != "original"]
            with tracer.span("core.inspect_cold"):
                cache = api.precompute_inspection(
                    scale, self.NODES, codes=parsec, seed=self.seed, workload=workload
                )
            for name in names:
                op_id = self._chaos_id(workload, stealing, name)
                with tracer.span("harness.op", op=op_id) as span:
                    outcome = stepwise.chaos_cell(
                        tracer,
                        name,
                        token,
                        n_nodes=self.NODES,
                        cores_per_node=2,
                        seed=self.seed,
                        fault_seed=FAULT_SEED,
                        cache=cache,
                        stealing=stealing,
                    )
                    span["counts"] = {
                        "steal_requests": outcome["steal_requests"],
                        "steals_granted": outcome["steals_granted"],
                    }
                wall = span["end"] - span["start"]
                ops.append(self._chaos_op(op_id, token, wall, outcome, span["start"]))
        for token in self.p["comm"]:
            reference = None
            baseline_wire = 0
            for label, coalescing, cache_on in self.KNOBS:
                op_id = f"comm.{token.split(':')[0]}.{label}"
                with tracer.span("harness.op", op=op_id) as span:
                    cell, output = stepwise.comm_cell(
                        tracer,
                        token,
                        n_nodes=self.NODES,
                        cores_per_node=4,
                        seed=self.seed,
                        coalescing=coalescing,
                        cache=cache_on,
                    )
                    span["counts"] = {
                        k: cell[k] for k in ("cache_hits", "cache_misses")
                    } | {"wire_messages": cell["wire_messages"]}
                    if reference is None:
                        reference, baseline_wire = output, cell["wire_messages"]
                    equal = bool(np.array_equal(reference, output))
                savings = None
                if coalescing and cache_on:
                    savings = 1.0 - cell["wire_messages"] / baseline_wire
                ops.append(self._comm_op(token, label, cell, equal, savings))
        return ops

    def layer_metrics(self, spans: list[dict], ops: list[Op]) -> dict:
        def cells(prefix: str, suffix: str = "") -> list[dict]:
            return [
                s
                for s in spans
                if s["name"] == "harness.op"
                and s["op"].startswith(prefix)
                and s["op"].endswith(suffix)
            ]

        def ops_wall(prefix: str, suffix: str = "") -> float:
            return sum(s["end"] - s["start"] for s in cells(prefix, suffix))

        def ops_count(key: str, prefix: str, suffix: str = "") -> float:
            return sum(s["counts"].get(key, 0) for s in cells(prefix, suffix))

        # the legacy runtime has no stealing, so leave "original" out
        steal_on = ops_wall("chaos.rbgs.steal.v")
        steal_off = ops_wall("chaos.rbgs.static.v")
        hits = ops_count("cache_hits", "comm.")
        lookups = hits + ops_count("cache_misses", "comm.")
        return {
            "parsec.steal_success_ratio": (
                ops_count("steals_granted", "chaos.")
                / ops_count("steal_requests", "chaos.")
            ),
            "parsec.steal_overhead_ratio": steal_on / steal_off,
            "sim.faults.overhead_ratio": (
                total_by_name(spans, "experiments.chaos_faulted")
                / 2.0
                / total_by_name(spans, "experiments.chaos_clean")
            ),
            "ga.cache_hit_ratio": hits / lookups,
            "sim.network.messages_saved_frac": 1.0
            - ops_count("wire_messages", "comm.", ".coalesce+cache")
            / ops_count("wire_messages", "comm.", ".baseline"),
            "ga.comm_knobs_overhead_ratio": (
                ops_wall("comm.", ".coalesce+cache") / ops_wall("comm.", ".baseline")
            ),
            "sim.engine.heap_events_per_s": probes.heap_events_per_s(),
        }


def span_layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics any in-process workload yields from its spans;
    a metric is present only if the workload made such a call."""
    out = {}

    def per_unit(span: str, count: str) -> float:
        """Microseconds of ``span`` per unit of its ``count``."""
        return 1e6 * total_by_name(spans, span) / count_by_name(spans, span, count)

    for metric, span in (
        ("workloads.build_s", "workloads.build"),
        ("core.inspect_cold_s", "core.inspect_cold"),
        ("core.inspect_cached_s", "core.inspect_cached"),
        ("core.ptg_build_s", "core.ptg_build"),
        ("parsec.execute_s", "parsec.execute"),
        ("legacy.execute_s", "legacy.execute"),
    ):
        if total_by_name(spans, span):
            out[metric] = total_by_name(spans, span)
    if "parsec.execute_s" in out:
        out["parsec.execute_us_per_task"] = per_unit("parsec.execute", "n_tasks")
        out["parsec.execute_us_per_message"] = per_unit(
            "parsec.execute", "messages_remote"
        )
    if "legacy.execute_s" in out:
        out["legacy.execute_us_per_gemm"] = per_unit("legacy.execute", "n_gemms")
    if total_by_name(spans, "parsec.dtd_execute"):
        out["parsec.dtd_execute_us_per_task"] = per_unit(
            "parsec.dtd_execute", "n_tasks"
        )
    reports = sum(s["name"] == "analysis.report_build" for s in spans)
    if reports:
        out["analysis.report_build_ms"] = (
            1e3 * total_by_name(spans, "analysis.report_build") / reports
        )
    return out


IN_PROCESS = {
    cls.name: cls
    for cls in (Fig9PaperSynth, CcsdSmallReal, RbgsLadderSynth, KnobsChaosSmall)
}
