"""The process-wide memo of the inspector half: bounded, locked, out of
every report, keyed by what each product depends on.

``experiments.calibration.cell_config`` hands ``inspector.PROCESS_MEMO``
to every cell whose caller brought no cache; a plain ``repro.run`` never
touches it. These tests pin the bound (least-recently-used over every
product, counted in bytes), the lock (concurrent callers of one key
compute it once), the keys (the seed draws the data and nothing else)
and that nothing about the memo reaches a result.
"""

import json
import pickle
import sys
import threading
from collections import defaultdict

import numpy as np
import pytest

import repro
from repro.core import api, inspector
from repro.core.inspector import (
    MEMO_MAX_BYTES,
    PROCESS_MEMO,
    TEMPLATE_BYTES_PER_TASK,
    InspectionCache,
    inspect_subroutine,
)
from repro.core.ptg_build import build_ccsd_ptg
from repro.core.variants import V1, V5
from repro.experiments.calibration import cell_config
from repro.experiments.fig9 import PAPER_NODES, run_point
from repro.parsec.ptg import PTG
from repro.parsec.taskclass import TaskClass
from repro.sim.cluster import DataMode


def _forget():
    PROCESS_MEMO._entries.clear()
    PROCESS_MEMO.n_bytes = 0
    PROCESS_MEMO.hits.clear()
    PROCESS_MEMO.misses.clear()


@pytest.fixture(autouse=True)
def cold_memo():
    """Every test starts on a cold memo and leaves the real bound behind."""
    _forget()
    yield
    _forget()
    PROCESS_MEMO.max_bytes = MEMO_MAX_BYTES


def _tiny(seed=7, n_nodes=4, cache=None, data_mode=DataMode.SYNTH):
    config = cell_config(1, n_nodes, data_mode, seed=seed, inspection_cache=cache)
    workload = api.build("t2_7:tiny", config)
    return workload, workload.levels()[0]


def _template(n_tasks):
    """A stand-in task template of ``n_tasks`` rows (weighs n x the rate):
    one class of input-less, edge-less tasks, all on node 0."""
    ptg = PTG("stand-in")
    ptg.add(
        TaskClass(
            "T",
            ("i",),
            domain=lambda md: [(i,) for i in range(n_tasks)],
            placement=lambda params, md: 0,
            run=lambda ctx: iter(()),
            flows=[],
        )
    )
    return ptg.template(None, n_nodes=1)


def _rows(graph):
    template = graph.template
    return [
        (
            graph.key(row),
            graph.nodes[row],
            template.priorities[template.ranks[row]],
            graph.pending[row],
            template.successors(row),
        )
        for row in range(len(graph))
    ]


def _instantiate(workload, variant, cache):
    level = workload.levels()[0]
    md = inspect_subroutine(level, workload.cluster, variant, cache)
    return md, build_ccsd_ptg(variant, md).instantiate(md, workload.cluster.n_nodes)


class TestBound:
    def test_more_seeds_than_the_bound_holds_through_run_point(self):
        """REAL cells of six seeds: one structure, one chain walk and one
        task table serve them all, and the draws are what the bound
        evicts, oldest first."""
        run_point("v5", 2, scale="tiny", n_nodes=4, seed=100, data_mode=DataMode.REAL)
        per_seed = sum(
            n for (kind, _), (_, n) in PROCESS_MEMO._entries.items() if kind == "draw"
        )
        fixed = PROCESS_MEMO.n_bytes - per_seed
        _forget()
        PROCESS_MEMO.max_bytes = fixed + 3 * per_seed
        for seed in range(100, 106):
            run_point(
                "v5", 2, scale="tiny", n_nodes=4, seed=seed, data_mode=DataMode.REAL
            )
            assert PROCESS_MEMO.n_bytes <= PROCESS_MEMO.max_bytes
        seeds = [key[0] for key in PROCESS_MEMO.keys("draw")]
        assert seeds == [103, 103, 104, 104, 105, 105]  # oldest first
        for kind in ("structure", "chains", "template"):
            assert (PROCESS_MEMO.misses[kind], PROCESS_MEMO.hits[kind]) == (1, 5)

    def test_the_real_constant_holds_and_the_oldest_key_goes(self):
        template = _template(1000)
        size = TEMPLATE_BYTES_PER_TASK * 1000
        room = MEMO_MAX_BYTES // size
        for i in range(room + 30):
            PROCESS_MEMO.template(("fake", i), lambda: template)
        assert PROCESS_MEMO.misses["template"] == room + 30
        assert PROCESS_MEMO.n_bytes == room * size <= MEMO_MAX_BYTES
        assert len(PROCESS_MEMO) == room
        assert PROCESS_MEMO.keys("template")[0] == ("fake", 30)

    def test_a_hit_is_the_most_recent_key(self):
        template = _template(10)
        cache = InspectionCache(max_bytes=2 * TEMPLATE_BYTES_PER_TASK * 10)
        for i in (0, 1, 0, 2):  # 0 is refreshed, so 1 is the one to go
            cache.template(i, lambda: template)
        assert cache.keys("template") == [0, 2]
        assert (cache.hits["template"], cache.misses["template"]) == (1, 3)

    def test_an_entry_over_the_bound_is_handed_back_uncached(self):
        workload, subroutine = _tiny()
        cache = InspectionCache(max_bytes=inspector.CHAIN_BYTES_PER_GEMM * 120 - 1)
        chains = cache.chains_for(subroutine, workload.cluster, V5)
        assert sum(len(chain.a_owner) for chain in chains) == 120
        assert len(cache) == 0 and cache.n_bytes == 0

    def test_an_entry_over_the_bound_evicts_nobody(self):
        small_workload, small = _tiny()
        big_workload = api.build("t2_7:small", cell_config(1, 4))
        big = big_workload.levels()[0]
        cache = InspectionCache(max_bytes=2 * inspector.CHAIN_BYTES_PER_GEMM * 120)
        for variant in (V1, V5):
            cache.chains_for(small, small_workload.cluster, variant)
        held = dict(cache._entries)
        chains = cache.chains_for(big, big_workload.cluster, V5)
        assert sum(len(chain.a_owner) for chain in chains) > 240
        assert cache._entries == held
        assert cache.chains_for(big, big_workload.cluster, V5) == chains
        assert (cache.hits["chains"], cache.misses["chains"]) == (0, 4)

    def test_one_height_of_the_largest_registered_workload_fits(self):
        """``ccsd:paper`` on the paper's 32 nodes: its structure and the
        chains of both heights (a sweep walks the seven levels in a
        cycle, which a least-recently-used memo one entry too small
        answers with a miss every time)."""
        cache = InspectionCache(max_bytes=MEMO_MAX_BYTES)
        config = cell_config(1, PAPER_NODES, inspection_cache=cache)
        workload = api.build("ccsd", config, scale="paper")

        def cell(variant):
            for subroutine in workload.levels():
                cache.chains_for(subroutine, workload.cluster, variant)

        cell(V5)
        cell(V5)
        assert (cache.misses["chains"], cache.hits["chains"]) == (7, 7)
        cell(V1)
        cell(V1)
        assert (cache.misses["chains"], cache.hits["chains"]) == (14, 14)
        assert len(cache) == 15 and cache.n_bytes <= MEMO_MAX_BYTES

    def test_ccsd_small_real_and_t2_7_paper_fit_together(self):
        """The sizing of :data:`MEMO_MAX_BYTES`: every product of a
        ``ccsd:small`` REAL sweep on 8 nodes and of a ``t2_7:paper`` one
        on 32, every paper variant, and nothing is evicted. The sums
        under the weights are DESIGN.md §10's (MiB): structures 7.3 +
        4.5, draws 90.2, chains 2.8 + 1.7, templates 4.6 + 2.7."""
        cache = InspectionCache(max_bytes=MEMO_MAX_BYTES)
        for token, n_nodes, data_mode in (
            ("ccsd:small", 8, DataMode.REAL),
            ("t2_7:paper", PAPER_NODES, DataMode.SYNTH),
        ):
            config = cell_config(2, n_nodes, data_mode, inspection_cache=cache)
            workload = api.build(token, config)
            for variant in repro.PAPER_VARIANTS.values():
                for level in workload.levels():
                    md = inspect_subroutine(level, workload.cluster, variant, cache)
                    build_ccsd_ptg(variant, md).instantiate(md, n_nodes)
        assert sum(cache.misses.values()) == len(cache) == 68
        assert cache.n_bytes <= MEMO_MAX_BYTES
        weighed = defaultdict(int)
        for (kind, _), (_, n_bytes) in cache._entries.items():
            weighed[kind] += n_bytes
        mib = {kind: round(n_bytes / 2**20, 1) for kind, n_bytes in weighed.items()}
        assert mib == {"structure": 11.8, "draw": 90.2, "chains": 4.5, "template": 7.4}
        assert round(cache.n_bytes / 2**20, 1) == 113.9

    def test_unbounded_by_default_and_still_pickles(self):
        cache = InspectionCache()
        workload, _ = _tiny(cache=cache, data_mode=DataMode.REAL)
        _instantiate(workload, V5, cache)
        assert {kind for kind, _ in cache._entries} == {
            "structure", "draw", "chains", "template"
        }
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.max_bytes is None and clone.n_bytes == cache.n_bytes
        assert list(clone._entries) == list(cache._entries)


class TestKeys:
    def test_the_seed_draws_the_data_and_nothing_else(self):
        """Seeds 7 and 8: one structure token, equal ``ChainMeta`` lists
        and task tables, different draws."""
        seen = {}
        for seed in (7, 8):
            workload, level = _tiny(
                seed, data_mode=DataMode.REAL, cache=InspectionCache()
            )
            md, graph = _instantiate(workload, V5, None)
            seen[seed] = (level.structure_token, md.chains, _rows(graph), workload)
        (token7, chains7, rows7, w7), (token8, chains8, rows8, w8) = seen.values()
        assert token7 == token8 and 7 not in token7
        assert chains7 == chains8 and rows7 == rows8
        for name in ("v:hppp", "t:hphh"):
            assert not np.array_equal(
                w7.arrays[name].gather(), w8.arrays[name].gather()
            )


class TestLock:
    def test_threads_on_the_same_and_different_keys(self):
        """Eight threads (more than this host's cores) build, inspect
        and instantiate two workloads x two seeds x two variants against
        one memo, the interpreter switching as often as it can: every
        key is computed once, and every thread gets the same products."""
        memo = InspectionCache(max_bytes=MEMO_MAX_BYTES)
        tokens, seeds, variants = ("t2_7:tiny", "rbgs:tiny"), (7, 8), (V1, V5)
        got = defaultdict(list)
        lock = threading.Lock()
        calls_per_thread = 8
        barrier = threading.Barrier(8)

        def worker(index):
            barrier.wait()
            for call in range(calls_per_thread):
                token = tokens[(index + call) % 2]
                seed = seeds[(index // 2 + call) % 2]
                variant = variants[(index // 4 + call) % 2]
                config = cell_config(
                    2, 4, DataMode.REAL, seed=seed, inspection_cache=memo
                )
                workload = api.build(token, config)
                md, graph = _instantiate(workload, variant, memo)
                draws = [
                    workload.arrays[t.name]._segments[0].base
                    for t in workload.structure.tensors
                    if t.stream is not None
                ]
                with lock:
                    got[token, seed, variant.name].append(
                        (workload.structure, draws, md.chains, _rows(graph))
                    )

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # a lost update needs a switch mid-call
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sum(len(seen) for seen in got.values()) == 8 * calls_per_thread
        # 2 structures; t2_7 draws 2 inputs, rbgs 1, per seed; one chain
        # walk and one table per (workload, variant)
        assert dict(memo.misses) == {
            "structure": 2, "draw": 6, "chains": 4, "template": 4
        }
        for seen in got.values():
            structure, draws, chains, rows = seen[0]
            for other in seen[1:]:
                assert other[0] is structure and other[2] is chains
                assert all(a is b for a, b in zip(other[1], draws))
                assert other[3] == rows


class TestWhoUsesIt:
    def test_cells_use_the_memo_and_a_plain_run_does_not(self):
        repro.run(
            "t2_7:tiny", runtime="v5",
            config=api.RunConfig(n_nodes=4, cores_per_node=2, metrics=False),
        )
        assert len(PROCESS_MEMO) == 0
        assert cell_config(2, 4).inspection_cache is PROCESS_MEMO
        first = run_point("v5", 1, scale="tiny", n_nodes=4)
        assert dict(PROCESS_MEMO.misses) == {"structure": 1, "chains": 1, "template": 1}
        second = run_point("v5", 2, scale="tiny", n_nodes=4)
        assert dict(PROCESS_MEMO.hits) == {"structure": 1, "chains": 1, "template": 1}
        assert len(PROCESS_MEMO) == 3
        assert first != second  # same structure, different cores/node

    def test_an_explicit_cache_wins(self):
        own = InspectionCache()
        assert cell_config(2, 4, inspection_cache=own).inspection_cache is own
        run_point("v5", 2, scale="tiny", n_nodes=4, inspection_cache=own)
        assert len(own) == 3 and len(PROCESS_MEMO) == 0

    def test_two_hundred_distinct_seed_points_stay_under_the_constant(self):
        for seed in range(200):
            run_point("v5", 1, scale="tiny", n_nodes=2, seed=seed)
        assert PROCESS_MEMO.misses == {"structure": 1, "chains": 1, "template": 1}
        assert PROCESS_MEMO.n_bytes <= MEMO_MAX_BYTES


class TestOutOfEveryReport:
    def test_cold_and_warm_runs_report_the_same_bytes(self):
        config = cell_config(2, 4, DataMode.REAL, metrics=True)

        def report():
            result = repro.run("t2_7:tiny", runtime="v5", config=config)
            return json.dumps(
                [result.metrics, result.report.to_dict()], sort_keys=True
            )

        cold = report()
        assert sum(PROCESS_MEMO.misses.values()) == len(PROCESS_MEMO) == 5
        warm = report()
        assert sum(PROCESS_MEMO.hits.values()) == 5
        assert cold == warm  # hits/misses are in neither

    def test_module_exports(self):
        assert inspector.PROCESS_MEMO is PROCESS_MEMO
        assert PROCESS_MEMO.max_bytes == MEMO_MAX_BYTES == 320 << 20
