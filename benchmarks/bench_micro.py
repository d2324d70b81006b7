"""Micro-benchmarks of the substrate itself.

These are conventional pytest-benchmark measurements (multiple rounds)
of the hot paths: DES event throughput, GA one-sided operations, PTG
instantiation, and a small end-to-end PaRSEC execution. They guard the
simulator's own performance — the Figure 9 sweep runs ~30 full cluster
simulations, so kernel regressions hurt.
"""

import gc
import time
from collections import deque

import pytest

from repro.core import api
from repro.core.inspector import inspect_subroutine
from repro.core.ptg_build import build_ccsd_ptg
from repro.core.variants import V5
from repro.experiments.calibration import make_cluster, make_workload
from repro.ga.runtime import GlobalArrays
from repro.parsec.stealing import StealPolicy
from repro.sim.cluster import Cluster, ClusterConfig, DataMode
from repro.sim.engine import Engine


@pytest.mark.benchmark(group="micro")
def test_micro_engine_event_throughput(benchmark):
    """Timer churn: four serial owners, 2500 ``engine.timeout`` waits each.

    Every wait is one arm (heap push), one fire (heap pop) and one lane
    hop on a recycled one-shot ``Timer``.
    """

    def run():
        engine = Engine()

        def worker():
            for _ in range(2500):
                yield engine.timeout(1.0)

        for _ in range(4):
            engine.process(worker())
        engine.run()
        return engine.now

    assert benchmark(run) == 2500.0


@pytest.mark.benchmark(group="micro")
def test_micro_engine_dispatch_cascade(benchmark):
    """Zero-delay event cascades: the immediate-lane fast path.

    succeed -> callback -> succeed chains, 50k hops, none of which
    touches the timed heap (see README.md, "Performance").
    """

    def run():
        engine = Engine()
        count = [0]

        def hop(ev):
            count[0] += 1
            if count[0] < 50_000:
                nxt = engine.event()
                nxt._wait(hop)
                nxt.succeed(None)

        first = engine.event()
        first._wait(hop)
        first.succeed(None)
        engine.run()
        return count[0]

    assert benchmark(run) == 50_000


@pytest.mark.benchmark(group="micro")
def test_micro_store_pingpong(benchmark):
    """Hot get()-with-item path through a Store (pre-filled producer)."""
    from repro.sim.queues import Store

    def run():
        engine = Engine()
        store = Store(engine)
        for i in range(25_000):
            store.put(i)
        got = [0]

        def consumer():
            while got[0] < 25_000:
                ok, _item = store.try_get()
                if not ok:
                    yield store.get()
                else:
                    yield engine.checkpoint
                got[0] += 1

        engine.process(consumer())
        engine.run()
        return got[0]

    assert benchmark(run) == 25_000


@pytest.mark.benchmark(group="micro")
def test_micro_bandwidth_reschedule_churn(benchmark):
    """Processor-sharing arrivals: every transfer cancels and re-arms the
    server's one direct-mode wakeup ``Timer``; the stale rows are shed
    lazily and the wakeup fires straight from the drain slot.
    """

    def run():
        engine = Engine()
        from repro.sim.resources import BandwidthResource

        membw = BandwidthResource(engine, capacity=1e9)

        def producer():
            for _ in range(2000):
                yield membw.transfer(1e6)

        for _ in range(2):
            engine.process(producer())
        engine.run()
        return membw.total_work

    assert benchmark(run) == pytest.approx(4e9)


@pytest.mark.benchmark(group="micro")
def test_micro_cancelled_timer_churn(benchmark):
    """Schedule-then-cancel churn: compaction keeps the heap bounded."""

    def run():
        engine = Engine()
        peak = 0
        for i in range(20_000):
            engine.schedule(1.0 + i, lambda: None).cancel()
            peak = max(peak, engine.timeline.pending)
        engine.run()
        return peak

    assert benchmark(run) <= 130


@pytest.mark.benchmark(group="micro")
def test_micro_ga_fetch_roundtrips(benchmark):
    """1k blocking one-sided gets against remote owners."""

    def run():
        cluster = Cluster(
            ClusterConfig(n_nodes=8, cores_per_node=1, data_mode=DataMode.SYNTH)
        )
        ga = GlobalArrays(cluster)
        array = ga.create("t", 8 * 4096)

        def reader(rank):
            for i in range(125):
                target = (rank + 1 + i) % 8
                lo, hi = array.distribution.node_range(target)
                yield from ga.fetch(rank, array, lo, lo + 512)

        for rank in range(8):
            cluster.engine.process(reader(rank))
        cluster.run()
        return ga.gets

    assert benchmark(run) == 1000


@pytest.mark.benchmark(group="micro")
def test_micro_ptg_instantiation(benchmark):
    """Inspection + PTG instantiation for the small workload."""
    cluster = make_cluster(2, n_nodes=8)
    workload = make_workload(cluster, scale="small")

    def run():
        md = inspect_subroutine(workload.subroutine, cluster, V5)
        ptg = build_ccsd_ptg(V5, md)
        graph = ptg.instantiate(md, cluster.n_nodes)
        return len(graph)

    n_tasks = benchmark(run)
    assert n_tasks > workload.subroutine.n_gemms * 3


@pytest.mark.benchmark(group="micro")
def test_micro_end_to_end_small_v5(benchmark):
    """Full simulated v5 execution of the small workload (SYNTH)."""

    def run():
        cluster = make_cluster(2, n_nodes=8)
        workload = make_workload(cluster, scale="small")
        return api.run(workload, variant=V5).execution_time

    assert benchmark(run) > 0


@pytest.mark.benchmark(group="micro")
@pytest.mark.parametrize("runtime", ["v5", "dtd"])
def test_micro_collector_share(benchmark, runtime):
    """What the cyclic collector costs one ``rbgs:24x24`` cell on 16x4.

    Prints collections per generation and seconds inside the collector
    next to the cell's wall time. ``api.run`` holds the collector off,
    so the expected line is ``0/0/0`` plus the one young collection of
    the scope's exit; a gen-1/gen-2 count or a share above ~2% means a
    run is making cyclic garbage again (DESIGN.md, "Memory model").
    """
    config = api.RunConfig(
        n_nodes=16, cores_per_node=4, data_mode=DataMode.SYNTH, metrics=False
    )
    collections = [0, 0, 0]
    in_collector = [0.0]
    started = [0.0]

    def on_collection(phase, info):
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            collections[info["generation"]] += 1
            in_collector[0] += time.perf_counter() - started[0]

    def run():
        return api.run("rbgs:24x24", runtime=runtime, config=config).n_tasks

    gc.callbacks.append(on_collection)
    try:
        t0 = time.perf_counter()
        n_tasks = benchmark.pedantic(run, rounds=1, iterations=1)
        wall = time.perf_counter() - t0
    finally:
        gc.callbacks.remove(on_collection)
    benchmark.extra_info.update(
        collections=list(collections), collector_s=in_collector[0], wall_s=wall
    )
    print(
        f"\n{runtime}: collections gen0/1/2 = {'/'.join(map(str, collections))}, "
        f"{in_collector[0]:.3f} s in the collector of {wall:.3f} s "
        f"({in_collector[0] / wall:.1%}), {n_tasks} tasks"
    )
    assert n_tasks > 0


@pytest.mark.benchmark(group="micro")
def test_micro_pool_cell_cost(benchmark):
    """Where a service cell runs, and what getting it there costs.

    One ``t2_7:tiny`` v5 ``point`` cell (the job service's unit of cold
    work), median of ten: in this process; through a warm
    :class:`~repro.experiments.sweep.WorkerPool` (what ``repro serve``
    does with ``--jobs >= 2``: pickle the cell, one process that has run
    cells before); through a pool forked for the call and killed after
    it (what every sweep job paid before the pool became the daemon's).
    Expected about 19 / 22 / 31 ms from this small process (64 ms from
    inside a daemon, whose larger heap the forked child copies on its
    first writes) and a warm/in-process ratio near 1.1; a ratio drifting
    towards the fresh figure means the service forks per job again or
    the cell's pickle has grown (``test_micro_cell_pickle_bytes``).
    """
    from statistics import median

    from repro.experiments.sweep import SweepExecutor, WorkerPool
    from repro.serve.jobs import JobSpec, build_cells

    cells = build_cells(JobSpec.normalize("point", {}))
    expected, _ = SweepExecutor(jobs=1).run(cells)

    def timed(run, rounds=10):
        samples = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            results, _ = run()
            samples.append(time.perf_counter() - t0)
            assert results == expected
        return 1e3 * median(samples)

    def fresh():
        pool = WorkerPool(1)
        try:
            return SweepExecutor(pool=pool).run(cells)
        finally:
            pool.close()

    warm_pool = WorkerPool(1)
    try:
        warm_pool.launch()
        SweepExecutor(pool=warm_pool).run(cells)  # its copy-on-write warm-up
        in_process_ms = timed(lambda: SweepExecutor(jobs=1).run(cells))
        warm_ms = benchmark.pedantic(
            lambda: timed(lambda: SweepExecutor(pool=warm_pool).run(cells)),
            rounds=1, iterations=1,
        )
    finally:
        warm_pool.close()
    fresh_ms = timed(fresh)
    benchmark.extra_info.update(
        in_process_ms=in_process_ms, warm_pool_ms=warm_ms, fresh_pool_ms=fresh_ms
    )
    print(
        f"\npoint cell: in-process {in_process_ms:.1f} ms, warm pool "
        f"{warm_ms:.1f} ms, fresh pool per call {fresh_ms:.1f} ms per cell; "
        f"warm/in-process {warm_ms / in_process_ms:.2f}"
    )
    assert warm_ms < fresh_ms


@pytest.mark.benchmark(group="micro")
def test_micro_cell_pickle_bytes(benchmark):
    """What a sweep cell weighs on its way to a pool process.

    Largest pickled ``fig9_cells`` cell at tiny / small / paper. A cell
    is its parameters: 200-odd bytes at every scale. 41 kB / 338 kB /
    2.3 MB when each cell carried a precomputed ``InspectionCache``
    (42 ms to dump and 76 ms to load per ``paper`` cell).
    """
    import pickle

    from repro.experiments.fig9 import CODES, fig9_cells

    def heaviest():
        return {
            scale: max(
                len(pickle.dumps(cell))
                for cell in fig9_cells(CODES, (1, 2), scale=scale, n_nodes=4)
            )
            for scale in ("tiny", "small", "paper")
        }

    sizes = benchmark.pedantic(heaviest, rounds=1, iterations=1)
    benchmark.extra_info.update(sizes)
    print("\npickled fig9 cell, bytes: " + ", ".join(
        f"{scale} {size}" for scale, size in sizes.items()
    ))
    assert max(sizes.values()) < 2048


def _memo_counts():
    from repro.core.inspector import PROCESS_MEMO

    return dict(PROCESS_MEMO.hits), dict(PROCESS_MEMO.misses)


@pytest.mark.benchmark(group="micro")
def test_micro_first_vs_second_cell_in_a_pool_process(benchmark):
    """Where the inspector half is paid: once per structure per pool process.

    A ``t2_7:tiny`` v5 ``point`` cell through one warm pool process,
    twice per node count, ten node counts: the first meets the chain
    height and task table of its node count and builds them (the
    structure it shares with every other cell), the second must not.
    The process's own memo counters are the verdict; the medians are the
    price. A second-cell miss means cells stopped sharing the process
    memo (or the bound evicts at this size).
    """
    from statistics import median

    from repro.experiments.sweep import SweepExecutor, WorkerPool
    from repro.serve.jobs import JobSpec, build_cells

    def cell_ms(pool, n_nodes):
        spec = JobSpec.normalize("point", {"n_nodes": n_nodes, "seed": 100 + n_nodes})
        _, stats = SweepExecutor(pool=pool).run(build_cells(spec))
        return 1e3 * sum(stats.cell_wall_s.values())

    pool = WorkerPool(1)  # node counts of its own: a copy of our memo has none
    try:
        pool.launch()
        cell_ms(pool, 24)  # copy-on-write warm-up; builds the structure
        before_hits, before_misses = pool.submit(_memo_counts).result()
        pairs = benchmark.pedantic(
            lambda: [(cell_ms(pool, n), cell_ms(pool, n)) for n in range(13, 23)],
            rounds=1, iterations=1,
        )
        after_hits, after_misses = pool.submit(_memo_counts).result()
    finally:
        pool.close()
    misses = {k: after_misses[k] - before_misses.get(k, 0) for k in after_misses}
    hits = {k: after_hits[k] - before_hits.get(k, 0) for k in after_hits}
    first, second = (median(column) for column in zip(*pairs))
    benchmark.extra_info.update(first_ms=first, second_ms=second)
    print(
        f"\npoint cell in a pool process: first of its node count {first:.1f} ms, "
        f"second {second:.1f} ms; memo misses {misses}, hits {hits}"
    )
    assert misses == {"structure": 0, "chains": 10, "template": 10}
    assert hits == {"structure": 20, "chains": 10, "template": 10}


@pytest.mark.benchmark(group="micro")
@pytest.mark.parametrize("token", ["t2_7:small", "ccsd:small"])
def test_micro_build_cold_vs_warm(benchmark, token):
    """``api.build`` of a REAL workload with nothing memoised, and again
    with its structure and draws in the memo (what every cell of a sweep
    after the first pays). Sized at 80 / 370 ms cold for t2_7 / ccsd
    before the memo held either; warm is the bind alone: the cluster,
    its GA handlers, the arrays, adopting the draws."""
    from statistics import median

    from repro.core.inspector import InspectionCache

    def build_ms(cache):
        config = api.RunConfig(
            n_nodes=8, cores_per_node=4, metrics=False, inspection_cache=cache
        )
        t0 = time.perf_counter()
        workload = api.build(token, config)
        elapsed = time.perf_counter() - t0
        del workload
        return 1e3 * elapsed

    def measure():
        cold = [build_ms(InspectionCache()) for _ in range(5)]
        memo = InspectionCache()
        build_ms(memo)
        warm = [build_ms(memo) for _ in range(5)]
        return median(cold), median(warm)

    cold, warm = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info.update(cold_ms=cold, warm_ms=warm)
    print(f"\n{token} REAL 8x4 build: cold {cold:.1f} ms, warm {warm:.1f} ms")
    assert warm < cold


@pytest.mark.benchmark(group="micro")
def test_micro_instantiate_cold_vs_warm(benchmark):
    """``PTG.instantiate`` of ``t2_7:paper`` v5 on 32 nodes: building and
    validating the task template, then materializing it (cold), against
    materializing the memoised template (warm). Collector paused, as in
    a run. Sized at 163 ms cold and 18 ms warm."""
    from statistics import median

    from repro.core.inspector import InspectionCache
    from repro.util import collector

    memo = InspectionCache()
    config = api.RunConfig(
        n_nodes=32, cores_per_node=1, data_mode=DataMode.SYNTH, metrics=False
    )
    workload = api.build("t2_7:paper", config)
    level = workload.levels()[0]

    @collector.paused()
    def instantiate_ms(cache):
        md = inspect_subroutine(level, workload.cluster, V5, cache)
        ptg = build_ccsd_ptg(V5, md)
        t0 = time.perf_counter()
        graph = ptg.instantiate(md, 32)
        elapsed = time.perf_counter() - t0
        assert len(graph) > 3 * level.n_gemms
        return 1e3 * elapsed

    def measure():
        cold = [instantiate_ms(None) for _ in range(5)]
        instantiate_ms(memo)
        warm = [instantiate_ms(memo) for _ in range(5)]
        return median(cold), median(warm)

    cold, warm = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info.update(cold_ms=cold, warm_ms=warm)
    print(f"\nt2_7:paper v5 instantiate: cold {cold:.1f} ms, warm {warm:.1f} ms")
    assert warm < cold


@pytest.mark.benchmark(group="micro")
def test_micro_ladder_decomposition(benchmark):
    """Host cost per task up the node ladder, beside what scales with it.

    One DAG (``rbgs:48x48``, 4 cores/node, SYNTH, registry on) on 4 / 16
    / 64 nodes, then grids 12 / 24 / 48 on 4 nodes; wall of one
    ``repro.run`` (build included) over its tasks (legacy: over its
    chains) next to the remote messages it sent. Measured when this was
    written: v5 42.6 / 44.4 / 44.4 us per task with 18.7k / 23.4k / 24.6k
    remote messages, dtd 32.8 / 34.1 / 35.3 with 10.2k / 12.8k / 13.4k,
    legacy 740 / 787 / 868 us per chain with 40.6k / 51.3k / 54.7k (its
    remote share of gets goes 3/4 -> 63/64); at 4 nodes the grid alone
    moves v5 41.7 / 39.6 / 42.6, dtd 30.2 / 30.6 / 32.8 and legacy 674 /
    703 / 740 (run only, as ISSUE 24 sized it: v5 38.9 / 37.7 / 40.6 and
    32.6 / 36.0 / 38.9). So the ladder's slope is the remote-message
    share plus the working set, not a per-node cost: a rung that grows
    while its message count does not is a new finding.
    """
    import repro

    def one(token, runtime, n_nodes):
        config = api.RunConfig(
            n_nodes=n_nodes, cores_per_node=4, data_mode=DataMode.SYNTH
        )
        t0 = time.perf_counter()
        result = repro.run(token, runtime=runtime, config=config)
        wall = time.perf_counter() - t0
        units = result.chains_executed if runtime == "legacy" else result.n_tasks
        remote = result.metrics["counters"].get("net.remote_messages", 0.0)
        return 1e6 * wall / units, int(remote)

    def ladder():
        rows = {}
        for runtime in ("legacy", "v5", "dtd"):
            rows[runtime, "nodes"] = [
                one("rbgs:48x48", runtime, n) for n in (4, 16, 64)
            ]
            rows[runtime, "grid"] = [
                one(f"rbgs:{g}x{g}", runtime, 4) for g in (12, 24)
            ] + rows[runtime, "nodes"][:1]
        return rows

    rows = benchmark.pedantic(ladder, rounds=1, iterations=1)
    print()
    for (runtime, axis), cells in rows.items():
        unit = "chain" if runtime == "legacy" else "task"
        where = "48x48 on 4/16/64 nodes" if axis == "nodes" else "12/24/48 on 4 nodes"
        print(
            f"{runtime:6s} {where:22s} us per {unit}: "
            + " / ".join(f"{us:.1f}" for us, _ in cells)
            + "   remote messages: "
            + " / ".join(str(remote) for _, remote in cells)
        )
        benchmark.extra_info[f"{runtime}.{axis}"] = cells


@pytest.mark.benchmark(group="micro")
def test_micro_remote_message_cost(benchmark):
    """Host cost of one remote message, from ``Network.send`` to delivery.

    Uncontended: one message in flight at a time, node 0 to node 1, each
    sent when the previous one is delivered, so every NIC grant is free.
    Contended: seven nodes each send their share to node 0 at once, so
    every TX channel and node 0's RX channel queue, and grants arrive on
    parked events. Median of five runs of 7 000 messages; printed, not
    gated. Measured when this was written (2-core x86, CPython 3.11):
    7.5 / 10.9 µs, against 9.8 / 14.0 µs when each remote message was a
    process over a transfer generator.
    """
    from statistics import median

    n = 7_000

    def uncontended():
        cluster = Cluster(ClusterConfig(n_nodes=2, cores_per_node=1))
        network = cluster.network

        def sender():
            for _ in range(n):
                yield network.send(0, 1, 1024.0, None, on_deliver=_ignore)

        cluster.engine.process(sender())
        return cluster

    def contended():
        cluster = Cluster(ClusterConfig(n_nodes=8, cores_per_node=1))
        for k in range(n):
            cluster.network.send(1 + k % 7, 0, 1024.0, None, on_deliver=_ignore)
        return cluster

    def us_per_message(setup):
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            cluster = setup()
            cluster.run()
            samples.append(time.perf_counter() - t0)
            assert cluster.network.remote_messages == n
        return 1e6 * median(samples) / n

    costs = benchmark.pedantic(
        lambda: (us_per_message(uncontended), us_per_message(contended)),
        rounds=1, iterations=1,
    )
    benchmark.extra_info.update(uncontended_us=costs[0], contended_us=costs[1])
    print(
        f"\nremote message: {costs[0]:.2f} us uncontended, "
        f"{costs[1]:.2f} us contended"
    )


def _ignore(_message):
    """An ``on_deliver`` that keeps nothing."""


class _Resume:
    """A resumed timer's continuation, counted each time it runs."""

    __slots__ = ("callback", "tally")

    def __init__(self, callback, tally) -> None:
        self.callback = callback
        self.tally = tally

    def __call__(self, arg) -> None:
        self.tally["resumed"] += 1
        self.callback(arg)


class _CountingLane(deque):
    """The immediate lane, counting the resumed continuations queued on it."""

    def __init__(self, tally) -> None:
        super().__init__()
        self.tally = tally

    def append(self, entry) -> None:
        if type(entry[2]) is _Resume:
            self.tally["via_lane"] += 1
        super().append(entry)


@pytest.mark.benchmark(group="micro")
def test_micro_resumed_timers_run_in_place(benchmark, monkeypatch):
    """What share of resumed timer fires skip the lane hop, per cell.

    ``Engine.run`` calls a resumed timer's continuation in place when its
    lane entry would be the very next thing run (empty lane, no other
    live row at that instant; ``sim/timeline.py``). Every continuation
    parked on a timer is counted when it runs, and again if it was
    queued on the lane; the difference ran in place. One cell in the
    shape of each host-benchmark workload (SYNTH unless noted), printed,
    not gated. Measured when this was written: 19% (fig9 v5), 98%
    (fig9 legacy), 63% (ccsd REAL), 62% / 80% (rbgs v5 / dtd), 53%
    (knobs).
    """
    from repro.sim.timeline import Timer

    tally = {"resumed": 0, "via_lane": 0}
    wait = Timer._wait
    init = Engine.__init__

    def counting_wait(self, callback):
        wait(self, _Resume(callback, tally))

    def counting_init(self):
        init(self)
        self._immediate = _CountingLane(tally)

    monkeypatch.setattr(Timer, "_wait", counting_wait)
    monkeypatch.setattr(Engine, "__init__", counting_init)
    cells = (
        ("fig9", "t2_7:small", "v5", dict(n_nodes=8, cores_per_node=7)),
        ("fig9", "t2_7:small", "legacy", dict(n_nodes=8, cores_per_node=7)),
        ("ccsd REAL", "ccsd:tiny", "v5", dict(n_nodes=4, cores_per_node=2,
                                              data_mode=DataMode.REAL)),
        ("rbgs ladder", "rbgs:24x24", "v5", dict(n_nodes=16, cores_per_node=4)),
        ("rbgs ladder", "rbgs:24x24", "dtd", dict(n_nodes=16, cores_per_node=4)),
        ("knobs", "t2_7:small", "v5", dict(n_nodes=8, cores_per_node=4,
                                           stealing=StealPolicy())),
    )

    def shares():
        import repro

        rows = []
        for label, token, runtime, knobs in cells:
            tally.update(resumed=0, via_lane=0)
            config = api.RunConfig(**{"data_mode": DataMode.SYNTH, **knobs})
            repro.run(token, runtime=runtime, config=config)
            resumed = tally["resumed"]
            share = 1 - tally["via_lane"] / resumed
            rows.append((label, token, runtime, resumed, share))
        return rows

    rows = benchmark.pedantic(shares, rounds=1, iterations=1)
    print()
    for label, token, runtime, resumed, share in rows:
        print(
            f"{label:12s} {token:11s} {runtime:7s} {resumed:8d} resumed fires, "
            f"{share:.1%} in place"
        )
        benchmark.extra_info[f"{token}.{runtime}"] = share


@pytest.mark.benchmark(group="micro")
def test_micro_decision_costs(benchmark):
    """Host µs per call of the decisions a knob-on run makes per event.

    ``MachineModel.gemm`` over a cycle of tile shapes (each shape's
    ``OpCost`` is computed once, then remembered); one fault draw
    (``FaultPlan._uniform``: a copy of the seed's cached sha256 prefix
    updated with the key); and one task-body step with the abort rule
    installed (a predicate call per resume) and without. Best of five;
    printed, not gated. Measured when this was written (2-core x86,
    CPython 3.11, OpenSSL 3.0): 0.29 µs per cost call (1.02 with a
    validated dataclass built per call), 0.69 µs per draw (0.97 hashing
    the whole text), 0.56 / 0.53 µs per step with / without a predicate
    (0.59 with a wrapper generator driving every step, 0.51 bare).
    """
    from repro.sim.cost import MachineModel
    from repro.sim.faults import FaultPlan

    n = 20_000
    machine = MachineModel()
    shapes = [(m, 24, 16) for m in range(8, 72, 8)]
    plan = FaultPlan(master_seed=2025, task_fail_prob=0.05)
    keys = [f"msg:get.reply:t2:{i}:0" for i in range(n)]

    def best(run):
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            run()
            samples.append(time.perf_counter() - t0)
        return 1e6 * min(samples) / n

    def costs():
        for _ in range(n // len(shapes)):
            for shape in shapes:
                machine.gemm(*shape)

    def draws():
        for key in keys:
            plan._uniform(key)

    def steps(abort):
        def run():
            engine = Engine()
            checkpoint = engine.checkpoint

            def body():
                for _ in range(n):
                    yield checkpoint

            def worker():
                yield from box[0].abortable(body(), abort)

            box = [engine.process(worker())]
            engine.run()

        return run

    rows = benchmark.pedantic(
        lambda: (
            best(costs),
            best(draws),
            best(steps(lambda: False)),
            best(steps(None)),
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(
        cost_us=rows[0], draw_us=rows[1], step_abort_us=rows[2], step_us=rows[3]
    )
    print(
        f"\nop cost {rows[0]:.2f} us/call, fault draw {rows[1]:.2f} us, "
        f"body step {rows[2]:.2f} us with an abort predicate, "
        f"{rows[3]:.2f} us without"
    )
