"""Micro-probes: direct drives of one layer's public functions.

Same shapes as ``benchmarks/bench_micro.py``, sized to a fraction of a
second each, best of :data:`REPEATS`. They run only in a traced run,
after the timed body, so they cost the end-to-end metrics nothing.
"""

from __future__ import annotations

import os
import pickle
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core import api
from repro.experiments.fig9 import run_fig9
from repro.experiments.sweep import SweepCell, SweepExecutor
from repro.ga.runtime import GlobalArrays
from repro.serve.journal import Journal
from repro.sim.cluster import Cluster, ClusterConfig, DataMode
from repro.sim.engine import Engine
from repro.sim.queues import Store
from repro.sim.resources import BandwidthResource
from repro.sim.timeline import KIND_TASK

REPEATS = 3


def _best(run: Callable[[], None]) -> float:
    """Shortest wall time of ``run`` over :data:`REPEATS` calls."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def heap_events_per_s(n: int = 20_000) -> float:
    """``Engine.timeout`` churn: four serial owners on the heap."""

    def run():
        engine = Engine()

        def worker():
            for _ in range(n // 4):
                yield engine.timeout(1.0)

        for _ in range(4):
            engine.process(worker())
        engine.run()

    return n / _best(run)


def _timeline_events_per_s(n: int = 20_000) -> float:
    """The same shape on reusable ``timeline.timer`` channels."""

    def run():
        engine = Engine()

        def worker():
            timer = engine.timeline.timer(KIND_TASK)
            for _ in range(n // 4):
                yield timer.after(1.0)

        for _ in range(4):
            engine.process(worker())
        engine.run()

    return n / _best(run)


def _lane_events_per_s(n: int = 50_000) -> float:
    """Zero-delay succeed -> callback -> succeed cascade."""

    def run():
        engine = Engine()
        count = [0]

        def hop(_event):
            count[0] += 1
            if count[0] < n:
                nxt = engine.event()
                nxt._wait(hop)
                nxt.succeed(None)

        first = engine.event()
        first._wait(hop)
        first.succeed(None)
        engine.run()

    return n / _best(run)


def _store_ops_per_s(n: int = 25_000) -> float:
    """Pre-filled ``Store`` drained through the hot ``try_get`` path."""

    def run():
        engine = Engine()
        store = Store(engine)
        for i in range(n):
            store.put(i)
        got = [0]

        def consumer():
            while got[0] < n:
                ok, _item = store.try_get()
                if not ok:
                    yield store.get()
                else:
                    yield engine.checkpoint
                got[0] += 1

        engine.process(consumer())
        engine.run()

    return n / _best(run)


def _bandwidth_transfers_per_s(n: int = 4_000) -> float:
    """Processor-sharing arrivals on one ``BandwidthResource``."""

    def run():
        engine = Engine()
        membw = BandwidthResource(engine, capacity=1e9)

        def producer():
            for _ in range(n // 2):
                yield membw.transfer(1e6)

        for _ in range(2):
            engine.process(producer())
        engine.run()

    return n / _best(run)


def engine_probes() -> dict:
    return {
        "sim.engine.heap_events_per_s": heap_events_per_s(),
        "sim.engine.timeline_events_per_s": _timeline_events_per_s(),
        "sim.engine.lane_events_per_s": _lane_events_per_s(),
        "sim.queues.store_ops_per_s": _store_ops_per_s(),
        "sim.resources.bandwidth_transfers_per_s": _bandwidth_transfers_per_s(),
    }


def ga_probes(n: int = 1_000, n_nodes: int = 8) -> dict:
    """Host microseconds per blocking remote ``fetch`` (SYNTH) and per
    ordered ``accumulate`` (REAL) on eight nodes."""
    per_rank = n // n_nodes

    def drive(data_mode: DataMode, ordered: bool):
        cluster = Cluster(
            ClusterConfig(n_nodes=n_nodes, cores_per_node=1, data_mode=data_mode)
        )
        ga = GlobalArrays(cluster)
        array = ga.create("t", n_nodes * 4096)
        if ordered:
            array.enable_ordered_accumulation()
        block = np.ones(512)

        def worker(rank):
            for i in range(per_rank):
                target = (rank + 1 + i) % n_nodes
                lo, _hi = array.distribution.node_range(target)
                if ordered:
                    yield from ga.accumulate(
                        rank, array, lo, lo + 512, block, tag=(rank, i)
                    )
                else:
                    yield from ga.fetch(rank, array, lo, lo + 512)

        for rank in range(n_nodes):
            cluster.engine.process(worker(rank))
        cluster.run()

    return {
        "ga.fetch_us": 1e6 * _best(lambda: drive(DataMode.SYNTH, False)) / n,
        "ga.acc_us": 1e6 * _best(lambda: drive(DataMode.REAL, True)) / n,
    }


def _noop_cell(index: int) -> int:
    return index


def sweep_probes() -> dict:
    """Process-pool cost with nothing to simulate, and pool efficiency on
    a tiny Figure 9 grid at ``jobs=2``."""
    cells = [SweepCell(key=(i,), fn=_noop_cell, kwargs={"index": i}) for i in range(12)]
    spawn = _best(lambda: SweepExecutor(jobs=2).run(cells))
    serial = _best(lambda: SweepExecutor(jobs=1).run(cells))
    stats = run_fig9(scale="tiny", core_counts=(1, 2), n_nodes=4, jobs=2).sweep_stats
    return {
        "experiments.sweep.spawn_ms": 1e3 * spawn,
        "experiments.sweep.serial_us_per_cell": 1e6 * serial / len(cells),
        "experiments.sweep.pool_efficiency": (
            sum(stats.cell_wall_s.values()) / (stats.jobs * stats.wall_s)
        ),
    }


def inspect_cache_pickle_ms() -> float:
    """Round trip of the precomputed ``InspectionCache`` a sweep parent
    ships to every pool worker (all five variants, t2_7 small, 8 nodes)."""
    cache = api.precompute_inspection("small", 8)
    return 1e3 * _best(lambda: pickle.loads(pickle.dumps(cache)))


def journal_append_us(directory: Path, n: int = 200) -> float:
    """``Journal.append`` with its flush + fsync, on a file in
    ``directory``."""
    path = directory / f"probe_journal_{os.getpid()}.jsonl"
    try:
        with Journal(path) as journal:
            start = time.perf_counter()
            for i in range(n):
                journal.append("job_started", job_id=f"j{i:06d}")
            elapsed = time.perf_counter() - start
    finally:
        path.unlink(missing_ok=True)
    return 1e6 * elapsed / n
