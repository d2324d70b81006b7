"""Every declared experiment, as its CLI subcommand runs it.

One case per entry of :data:`repro.experiments.claims.EXPERIMENT_NAMES`:
Figure 9, the Figure 10/11 and 12/13 traces, the Section IV-A
equivalence, the Section IV ablations, the comm knob matrix and the
chaos sweep. Each runs once through the experiment driver, writes the
report its subcommand prints under ``benchmarks/results/`` and asserts
its claims, unless they are informational at this scale.
"""

import pytest

from benchmarks.conftest import assert_claims, write_report
from repro.experiments.ablations import below_paper
from repro.experiments.claims import EXPERIMENT_NAMES, experiment


def bench_case(name: str, scale: str) -> tuple[dict, str]:
    """The parameters one experiment runs with at the bench scale, and
    the report file it writes."""
    if name == "equivalence":
        # REAL data end to end: always at its default 'small' on 8 nodes
        # (the paper-scale tensors would need ~40 GB of storage; the
        # claim is scale-independent)
        return {}, "equivalence.txt"
    if name == "chaos":
        # REAL data too: three runs per runner, at most at small scale
        return dict(scale=below_paper(scale)), f"chaos_{scale}.txt"
    return dict(scale=scale), f"{name}_{scale}.txt"


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_experiment(benchmark, results_dir, scale, name):
    declared = experiment(name)
    params, report_file = bench_case(name, scale)
    result, _ = benchmark.pedantic(
        lambda: declared.run(**params), rounds=1, iterations=1
    )
    write_report(results_dir, report_file, declared.report(result))
    assert_claims(declared.claims(result), declared.note(**params))
