"""The process-wide inspection memo: bounded, locked, out of every report.

``experiments.calibration.cell_config`` hands ``inspector.PROCESS_MEMO``
to every cell whose caller brought no cache; a plain ``repro.run`` never
touches it. These tests pin the bound (least-recently-used, counted in
GEMMs), the lock (concurrent callers of one key inspect once) and that
nothing about the memo reaches a result.
"""

import json
import pickle
import sys
import threading

import pytest

import repro
from repro.core import api, inspector
from repro.core.inspector import MEMO_MAX_GEMMS, PROCESS_MEMO, InspectionCache
from repro.core.variants import V1, V5
from repro.experiments.calibration import cell_config
from repro.experiments.fig9 import PAPER_NODES, run_point

TINY_GEMMS = 120  # one inspected t2_7:tiny entry


def _forget():
    PROCESS_MEMO._chains.clear()
    PROCESS_MEMO.n_gemms = 0


@pytest.fixture(autouse=True)
def cold_memo():
    """Every test starts on a cold memo and leaves the real bound behind."""
    _forget()
    yield
    _forget()
    PROCESS_MEMO.max_gemms = MEMO_MAX_GEMMS


def _tiny(seed=7, n_nodes=4):
    workload = api.build("t2_7:tiny", cell_config(1, n_nodes, seed=seed))
    return workload, workload.levels()[0]


def _gemms(cache):
    return sum(chain.length for chains in cache._chains.values() for chain in chains)


class TestBound:
    def test_more_seeds_than_the_bound_holds_through_run_point(self):
        PROCESS_MEMO.max_gemms = 3 * TINY_GEMMS
        for seed in range(100, 106):
            run_point("v5", 2, scale="tiny", n_nodes=4, seed=seed)
            assert PROCESS_MEMO.n_gemms == _gemms(PROCESS_MEMO) <= 3 * TINY_GEMMS
        seeds = [key[0][6] for key in PROCESS_MEMO._chains]
        assert seeds == [103, 104, 105]  # oldest first, 100-102 evicted

    def test_the_real_constant_holds_and_the_oldest_key_goes(self):
        workload, subroutine = _tiny()
        base = subroutine.structure_token
        n = MEMO_MAX_GEMMS // TINY_GEMMS + 30
        for i in range(n):
            subroutine.structure_token = base + (i,)
            PROCESS_MEMO.chains_for(subroutine, workload.cluster, V5)
        assert PROCESS_MEMO.misses >= n
        assert PROCESS_MEMO.n_gemms == _gemms(PROCESS_MEMO) <= MEMO_MAX_GEMMS
        assert len(PROCESS_MEMO) == MEMO_MAX_GEMMS // TINY_GEMMS
        oldest = next(iter(PROCESS_MEMO._chains))
        assert oldest[0][-1] == n - len(PROCESS_MEMO)

    def test_a_hit_is_the_most_recent_key(self):
        workload, subroutine = _tiny()
        cache = InspectionCache(max_gemms=2 * TINY_GEMMS)
        base = subroutine.structure_token
        for i in (0, 1, 0, 2):  # 0 is refreshed, so 1 is the one to go
            subroutine.structure_token = base + (i,)
            cache.chains_for(subroutine, workload.cluster, V5)
        assert [key[0][-1] for key in cache._chains] == [0, 2]
        assert (cache.hits, cache.misses) == (1, 3)

    def test_an_entry_over_the_bound_is_handed_back_uncached(self):
        workload, subroutine = _tiny()
        cache = InspectionCache(max_gemms=TINY_GEMMS - 1)
        chains = cache.chains_for(subroutine, workload.cluster, V5)
        assert sum(chain.length for chain in chains) == TINY_GEMMS
        assert len(cache) == 0 and cache.n_gemms == 0

    def test_an_entry_over_the_bound_evicts_nobody(self):
        small_workload, small = _tiny()
        big_workload = api.build("t2_7:small", cell_config(1, 4))
        big = big_workload.levels()[0]
        cache = InspectionCache(max_gemms=2 * TINY_GEMMS)
        base = small.structure_token
        for i in (0, 1):
            small.structure_token = base + (i,)
            cache.chains_for(small, small_workload.cluster, V5)
        held = dict(cache._chains)
        chains = cache.chains_for(big, big_workload.cluster, V5)
        assert sum(chain.length for chain in chains) > 2 * TINY_GEMMS
        assert cache._chains == held and cache.n_gemms == 2 * TINY_GEMMS
        assert cache.chains_for(big, big_workload.cluster, V5) == chains
        assert (cache.hits, cache.misses) == (0, 4)  # never memoised

    def test_one_height_of_the_largest_registered_workload_fits(self):
        """``ccsd:paper`` on the paper's 32 nodes: consecutive cells walk
        its seven levels in a cycle, which a least-recently-used memo one
        GEMM too small answers with a miss every time."""
        workload = api.build("ccsd", cell_config(1, PAPER_NODES), scale="paper")
        cache = InspectionCache(max_gemms=MEMO_MAX_GEMMS)

        def cell(variant):
            for subroutine in workload.levels():
                cache.chains_for(subroutine, workload.cluster, variant)

        cell(V5)
        cell(V5)
        assert (len(cache), cache.misses, cache.hits) == (7, 7, 7)
        assert cache.n_gemms == 93_620 <= MEMO_MAX_GEMMS
        cell(V1)  # the other height does not fit beside it ...
        assert cache.misses == 14 and cache.n_gemms <= MEMO_MAX_GEMMS
        cell(V1)  # ... so it took its place, once
        assert cache.misses == 14

    def test_unbounded_by_default_and_still_pickles(self):
        workload, subroutine = _tiny()
        cache = InspectionCache()
        cache.chains_for(subroutine, workload.cluster, V5)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.max_gemms is None and clone.n_gemms == TINY_GEMMS
        assert clone._chains == cache._chains


class TestLock:
    def test_threads_on_the_same_and_different_keys(self):
        built = {seed: _tiny(seed) for seed in (7, 8)}
        expected = {
            (seed, variant.name): InspectionCache().chains_for(
                sub, workload.cluster, variant
            )
            for seed, (workload, sub) in built.items()
            for variant in (V1, V5)
        }
        got, calls_per_thread = {}, 40
        barrier = threading.Barrier(4)

        def worker(index):
            barrier.wait()
            for call in range(calls_per_thread):
                seed = (7, 8)[(index + call) % 2]
                variant = (V1, V5)[(index // 2 + call) % 2]
                workload, sub = built[seed]
                chains = PROCESS_MEMO.chains_for(sub, workload.cluster, variant)
                got.setdefault((seed, variant.name), []).append(chains)

        before = PROCESS_MEMO.hits + PROCESS_MEMO.misses
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # a lost update needs a switch mid-call
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        calls = PROCESS_MEMO.hits + PROCESS_MEMO.misses - before
        assert calls == 4 * calls_per_thread
        assert len(PROCESS_MEMO) == 4  # each key was inspected once
        for key, seen in got.items():
            assert all(chains is seen[0] for chains in seen)
            assert seen[0] == expected[key]


class TestWhoUsesIt:
    def test_cells_use_the_memo_and_a_plain_run_does_not(self):
        repro.run(
            "t2_7:tiny", runtime="v5",
            config=api.RunConfig(n_nodes=4, cores_per_node=2, metrics=False),
        )
        assert len(PROCESS_MEMO) == 0
        assert cell_config(2, 4).inspection_cache is PROCESS_MEMO
        first = run_point("v5", 1, scale="tiny", n_nodes=4)
        hits = PROCESS_MEMO.hits
        second = run_point("v5", 2, scale="tiny", n_nodes=4)
        assert len(PROCESS_MEMO) == 1 and PROCESS_MEMO.hits == hits + 1
        assert first != second  # same chains, different cores/node

    def test_an_explicit_cache_wins(self):
        own = InspectionCache()
        assert cell_config(2, 4, inspection_cache=own).inspection_cache is own
        run_point("v5", 2, scale="tiny", n_nodes=4, inspection_cache=own)
        assert len(own) == 1 and len(PROCESS_MEMO) == 0

    def test_two_hundred_distinct_seed_points_stay_under_the_constant(self):
        for seed in range(200):
            run_point("v5", 1, scale="tiny", n_nodes=2, seed=seed)
        assert PROCESS_MEMO.misses >= 200
        assert PROCESS_MEMO.n_gemms == _gemms(PROCESS_MEMO) <= MEMO_MAX_GEMMS


class TestOutOfEveryReport:
    def test_cold_and_warm_runs_report_the_same_bytes(self):
        config = cell_config(2, 4, metrics=True)

        def report():
            result = repro.run("t2_7:tiny", runtime="v5", config=config)
            return json.dumps(
                [result.metrics, result.report.to_dict()], sort_keys=True
            )

        cold = report()
        assert PROCESS_MEMO.misses and len(PROCESS_MEMO) == 1
        hits = PROCESS_MEMO.hits
        warm = report()
        assert PROCESS_MEMO.hits == hits + 1
        assert cold == warm  # hits/misses are in neither

    def test_module_exports(self):
        assert inspector.PROCESS_MEMO is PROCESS_MEMO
        assert PROCESS_MEMO.max_gemms == MEMO_MAX_GEMMS == 1 << 17
