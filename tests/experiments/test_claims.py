"""Each experiment's claims on constructed results: every band edge, and
when the paper-shape claims gate.

No simulation runs here. Figure 9's claims are checked on the committed
paper-scale BENCH file, which the ``perf-paper`` CI job keeps equal to a
fresh sweep.
"""

import pytest

from repro.experiments.ablations import (
    MIN_MESSAGE_SAVINGS,
    AblationResult,
    CommAblationResult,
    CommCell,
    ablation_claims,
    comm_claims,
)
from repro.experiments.chaos import ChaosOutcome, ChaosResult, chaos_claims
from repro.experiments.claims import informational
from repro.experiments.equivalence import EquivalenceResult, equivalence_claims
from repro.experiments.fig9 import Fig9Result, fig9_shape_checks
from repro.experiments.perf import baseline_path
from repro.experiments.traces import (
    TraceExperiment,
    fig10_11_claims,
    fig12_13_claims,
)
from repro.sim.trace import TaskCategory


def verdicts(checks):
    return [check.passed for check in checks]


def test_fig9_claims_hold_on_the_committed_paper_grid():
    checks = fig9_shape_checks(Fig9Result.read(baseline_path("paper")))
    assert len(checks) == 10
    assert all(check.line.startswith("[PASS] ") for check in checks)


class TestInformational:
    def test_paper_and_full_scale_gate(self):
        assert informational("paper") is None
        assert informational("full") is None
        assert informational("paper", workload="t2_7:paper") is None

    @pytest.mark.parametrize(
        "kwargs, reason",
        [
            (dict(scale="small"), "at --scale small"),
            (dict(scale="paper", workload="rbgs"), "--workload rbgs"),
            (dict(scale="paper", stealing=True), "--stealing/--skew-factor"),
            (dict(scale="paper", skew_factor=2), "--stealing/--skew-factor"),
        ],
    )
    def test_anything_else_is_informational(self, kwargs, reason):
        assert reason in informational(**kwargs)


def _trace(time=1.0, idle=0.1, overlap=0.0, comm=0.5, shares=None):
    return TraceExperiment(
        name="t",
        execution_time=time,
        startup_idle=idle,
        overlap=overlap,
        comm_fraction=comm,
        category_share=shares or {TaskCategory.GEMM: 0.3, TaskCategory.COMM: 0.3},
        trace=None,
    )


class TestTraceClaims:
    def test_v2_startup_idle_band(self):
        v4 = _trace(idle=0.1)
        assert verdicts(fig10_11_claims(v4, _trace(idle=0.151, time=2.0))) == [
            True,
            True,
        ]
        assert not fig10_11_claims(v4, _trace(idle=0.15, time=2.0))[0].passed

    def test_v2_time_band(self):
        v4 = _trace(time=1.0)
        assert fig10_11_claims(v4, _trace(idle=1.0, time=1.11))[1].passed
        assert not fig10_11_claims(v4, _trace(idle=1.0, time=1.1))[1].passed

    def test_fig12_13_bands(self):
        assert all(verdicts(fig12_13_claims(_trace())))
        overlap, ratio, gemm, comm = range(4)
        assert not fig12_13_claims(_trace(overlap=1e-9))[overlap].passed
        # comm (COMM + WRITE) over GEMM span time must exceed 0.5
        at_half = {TaskCategory.GEMM: 0.4, TaskCategory.COMM: 0.2}
        above = {TaskCategory.GEMM: 0.4, TaskCategory.WRITE: 0.21}
        assert not fig12_13_claims(_trace(shares=at_half))[ratio].passed
        assert fig12_13_claims(_trace(shares=above))[ratio].passed
        low_gemm = {TaskCategory.GEMM: 0.2, TaskCategory.COMM: 0.2}
        assert not fig12_13_claims(_trace(shares=low_gemm))[gemm].passed
        assert not fig12_13_claims(_trace(comm=0.3))[comm].passed
        assert fig12_13_claims(_trace(comm=0.31))[comm].passed


def _ablations(**changes):
    series = dict(
        priority_offsets={0: 2.0, 5: 2.0},
        segment_heights={"height-1": 1.0, "full-chain": 1.5},
        write_organization={
            "lock=4e-05s": {"single-write (v5)": 2.0, "parallel-write": 2.0}
        },
        scheduler_policies={"priority": 1.02, "fifo": 1.0},
        load_balancing={
            "nxtval-stealing": 2.0,
            "static-cyclic": 3.0,
            "parsec-v4 (static nodes + dynamic cores)": 1.9,
        },
        work_stealing={},
    )
    series.update(changes)
    return AblationResult(scale="paper", **series)


class TestAblationClaims:
    def test_every_band_edge_passes(self):
        # +5 == +0, single == parallel WRITE and priority == 1.02 x FIFO
        # are on their bands' edges
        assert all(verdicts(ablation_claims(_ablations())))

    @pytest.mark.parametrize(
        "index, changes",
        [
            (0, dict(priority_offsets={0: 2.0, 5: 2.001})),
            (1, dict(segment_heights={"height-1": 1.5, "full-chain": 1.5})),
            (
                2,
                dict(
                    write_organization={
                        "lock=4e-05s": {
                            "single-write (v5)": 2.001,
                            "parallel-write": 2.0,
                        }
                    }
                ),
            ),
            (3, dict(scheduler_policies={"priority": 1.0201, "fifo": 1.0})),
            (
                4,
                dict(
                    load_balancing={
                        "nxtval-stealing": 2.0,
                        "static-cyclic": 3.0,
                        "parsec-v4 (static nodes + dynamic cores)": 2.0,
                    }
                ),
            ),
        ],
    )
    def test_just_past_each_band_fails(self, index, changes):
        expected = [True] * 5
        expected[index] = False
        assert verdicts(ablation_claims(_ablations(**changes))) == expected


def test_equivalence_needs_13_digits():
    passing = EquivalenceResult(energies={}, max_relative_spread=0.9e-13)
    failing = EquivalenceResult(energies={}, max_relative_spread=1.1e-13)
    assert verdicts(equivalence_claims(passing)) == [True]
    assert verdicts(equivalence_claims(failing)) == [False]


def _comm(saved_messages=21, equal=True):
    def cell(coalescing, cache, messages, output_equal=True):
        # workload, knobs, time, wire messages, then the five GA counters
        return CommCell(
            "t2_7", coalescing, cache, 1.0, messages, 0, 0, 0, 0, 0, output_equal
        )

    return CommAblationResult(
        scale="tiny",
        rows=[
            cell(False, False, 100),
            cell(True, False, 90),
            cell(False, True, 90, output_equal=equal),
            cell(True, True, 100 - saved_messages),
        ],
    )


class TestCommClaims:
    def test_savings_band_edge(self):
        assert MIN_MESSAGE_SAVINGS == 0.20
        # 1 - 80/100 is a hair under 0.20 in floating point, so the edge
        # is probed one message to either side
        assert verdicts(comm_claims(_comm(saved_messages=21))) == [True, True]
        assert verdicts(comm_claims(_comm(saved_messages=19))) == [True, False]

    def test_a_diverged_output_fails(self):
        checks = comm_claims(_comm(equal=False))
        assert verdicts(checks) == [False, True]
        assert checks[0].detail == "1 of 3 runs diverged"


def test_chaos_needs_every_runner_ok():
    def outcome(name, bitwise=True):
        return ChaosOutcome(name, bitwise, True, True, 1.0, 2.0)

    ok = ChaosResult("plan", [outcome("original"), outcome("v5")])
    broken = ChaosResult("plan", [outcome("original"), outcome("v5", bitwise=False)])
    assert verdicts(chaos_claims(ok)) == [True]
    (check,) = chaos_claims(broken)
    assert not check.passed and check.detail == "FAILURES DETECTED: v5"
