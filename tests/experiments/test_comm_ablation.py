"""The comm-optimization ablation matrix (coalescing × remote cache).

Runs the real driver at tiny scale on one workload (the full three-
workload matrix is the CI ablation-smoke job's budget, not the unit
suite's) and pins the properties the CI gate relies on: all four knob
cells present, knobs-on outputs bitwise-equal to baseline, the
both-knobs cell strictly cheaper in wire messages, and a rendering
table that carries every cell.
"""

import pytest

from repro.experiments.ablations import comm_claims, comm_report, run_comm_ablation


@pytest.fixture(scope="module")
def result():
    return run_comm_ablation(workloads=("t2_7",), scale="tiny")


class TestCommAblation:
    def test_matrix_has_all_four_cells(self, result):
        labels = [cell.label for cell in result.rows]
        assert labels == ["baseline", "coalesce", "cache", "coalesce+cache"]
        assert all(cell.workload == "t2_7" for cell in result.rows)

    def test_all_outputs_bitwise_equal(self, result):
        assert comm_claims(result)[0].passed
        for cell in result.rows:
            assert cell.output_equal

    def test_both_knobs_save_wire_messages(self, result):
        base = result.baseline("t2_7")
        savings = result.message_savings("t2_7")
        assert savings > 0.0
        for cell in result.rows:
            if cell.coalescing or cell.cache:
                assert cell.wire_messages < base.wire_messages

    def test_knob_counters_light_up(self, result):
        for cell in result.rows:
            if cell.coalescing:
                assert cell.coalesced_batches > 0
                assert cell.messages_saved > 0
            else:
                assert cell.coalesced_batches == 0
                assert cell.messages_saved == 0
            if cell.cache:
                assert cell.cache_hits > 0
                assert cell.cache_bytes_saved > 0
                # hits are fetches that never touched the wire
                assert cell.bytes_fetched < result.baseline("t2_7").bytes_fetched
            else:
                assert cell.cache_hits == 0

    def test_table_renders_every_cell(self, result):
        table = comm_report(result)
        assert "coalesce+cache" in table
        assert "baseline" in table
        assert table.count("t2_7") >= 4

    def test_unknown_workload_raises(self, result):
        with pytest.raises(KeyError):
            result.baseline("nope")
        with pytest.raises(KeyError):
            result.message_savings("nope")
