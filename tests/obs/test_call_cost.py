"""A host-independent cost gate for the metrics registry.

Wall-clock ratios move 10-25% on a shared host, so they cannot gate
tier-1. The number of Python-level calls a run makes is the same on every
host (it repeats to within a few calls in 130 000, from ``abc``'s
subclass caches): with bound cells an enabled registry adds slot updates, which are
not calls, plus one ``histogram.observe`` per sample, where the by-name
registry added five to seven calls per emit (on/off was 1.30 on legacy
and 1.27 on v5 for this run). The registry's gate is the calls it adds,
on minus off, about 1% over what it adds today (2 507 legacy, 3 841
v5), and at most 5% of the off-path ceiling: a ratio of the two would
fail whenever the off path got cheaper and the registry did not.

The same counts, registry off, are the host work a simulated event
costs; each runtime's count has a ceiling about 1% above what it makes
when a charge is one waitable and a stale row is dropped when popped
(before: 109 862 legacy, 135 018 v5; after: 101 639 and 114 891), and
the PTG's guards compute a GEMM's segment position by arithmetic over
the chain IR rather than reading a copied record per GEMM (98 716 and
99 258; 98 972 and 109 902 before). With a process that is its own
completion event the counts are 98 732 and 97 934, 16 more each than
the code before it: one ``SimEvent.__init__`` per spawned process (8
legacy ranks, 16 v5 threads) and one ``_dispatch`` per finished rank.
With a row's input count its in-degree in the template, counted while
its edges are resolved, v5 no longer evaluates an input-side guard per
row: 94 134 (ceiling 100 300 -> 95 100; legacy unchanged).

    PYTHONPATH=src python tests/obs/test_call_cost.py   # the counts, as JSON
"""

import gc
import json
import sys

import pytest

import repro
from repro.core.api import RunConfig
from repro.sim.cluster import DataMode

RUNTIMES = ("legacy", "v5")
#: off-path calls of one run, per runtime
MAX_OFF_CALLS = {"legacy": 99_700, "v5": 95_100}
#: calls an enabled registry adds to that run, per runtime
MAX_REGISTRY_CALLS = {"legacy": 2_535, "v5": 3_880}


def count_calls(runtime: str, metrics: bool) -> int:
    """Python-level calls (``c_call`` excluded) of one ``rbgs:8x8`` run,
    4 nodes x 2 cores, SYNTH."""
    config = RunConfig(
        n_nodes=4, cores_per_node=2, data_mode=DataMode.SYNTH, metrics=metrics
    )
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # a collection closes the previous run's parked generators, and each
    # close is a call: collect now, not somewhere inside the count
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        repro.run("rbgs:8x8", runtime=runtime, config=config)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def on_off_counts(runtime: str) -> dict:
    count_calls(runtime, True)  # lazy imports and caches, once
    return {"on": count_calls(runtime, True), "off": count_calls(runtime, False)}


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_enabled_registry_adds_at_most_five_percent_of_calls(runtime):
    ceiling = MAX_REGISTRY_CALLS[runtime]
    assert ceiling <= 0.05 * MAX_OFF_CALLS[runtime]
    counts = on_off_counts(runtime)
    added = counts["on"] - counts["off"]
    print(f"{runtime}: {counts} adds {added} (ceiling {ceiling})")
    assert added <= ceiling


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_off_path_calls_stay_under_their_ceiling(runtime):
    count_calls(runtime, False)  # lazy imports and caches, once
    calls = count_calls(runtime, False)
    print(f"{runtime}: off {calls} (ceiling {MAX_OFF_CALLS[runtime]})")
    assert calls <= MAX_OFF_CALLS[runtime]


if __name__ == "__main__":
    json.dump({runtime: on_off_counts(runtime) for runtime in RUNTIMES}, sys.stdout)
    print()
