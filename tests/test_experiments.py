"""Tests for the experiment drivers: each must reproduce the paper's qualitative shape."""

import pytest

from repro.experiments.figure1 import crossover_sequence_length_k, run_figure1a, run_figure1b
from repro.experiments.figure6 import run_figure6
from repro.experiments.figure11 import (
    max_loss_divergence,
    run_figure11a,
    run_figure11c,
    run_figure11d,
)
from repro.experiments.report import Series, Table, format_table
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4
from repro.experiments.table5 import run_table5
from repro.train.gpt import MiniGPTConfig


class TestReportHelpers:
    def test_table_rendering(self):
        table = Table("demo", ["a", "b"])
        table.add_row([1, "x"])
        text = table.render()
        assert "demo" in text and "1" in text and "x" in text
        assert table.column("a") == ["1"]

    def test_row_length_checked(self):
        table = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_series(self):
        series = Series("s")
        series.add(1, 2)
        assert series.as_dict() == {"x": [1.0], "y": [2.0]}
        assert len(series) == 1

    def test_format_table_alignment(self):
        text = format_table("t", ["col"], [["value"]])
        assert "col" in text and "value" in text


@pytest.fixture(scope="module")
def figure1a_8k():
    return run_figure1a(per_gpu_tokens=8 * 1024, capacity_gib=40.0, num_iterations=5)


class TestFigure1:
    def test_fragmentation_experiment_shows_the_pathology(self, figure1a_8k):
        result = figure1a_8k
        assert result.peak_reserved_gib >= result.peak_allocated_gib
        assert result.fragmentation_exceeds_4gib
        assert result.planned_peak_gib <= result.peak_allocated_gib * 1.01

    def test_fragmentation_experiment_golden_values(self, figure1a_8k):
        # Exact outputs of the pairwise planner and re-summing allocator:
        # faster bookkeeping must leave every one bit-identical.
        result = figure1a_8k
        assert result.peak_allocated_gib == 34.83329963684082
        assert result.peak_reserved_gib == 35.23170471191406
        assert result.num_reorganizations == 0
        assert result.oom is False
        assert result.planned_peak_gib == 34.83329963684082

    def test_offload_crossover_between_128k_and_320k(self):
        curves = run_figure1b(sequence_lengths_k=[64, 128, 192, 256, 320])
        crossover = crossover_sequence_length_k(curves)
        assert crossover is not None
        assert 128 <= crossover <= 320

    def test_curve_shapes(self):
        curves = run_figure1b(sequence_lengths_k=[64, 128, 256])
        attention = curves["flash_attention"].y
        offload = curves["full_offload"].y
        # Attention grows super-linearly, offload linearly.
        assert attention[2] / attention[0] > 3.5
        assert offload[2] / offload[0] == pytest.approx(4.0, rel=0.05)


class TestFigure6:
    def test_attention_share_grows_and_exceeds_90_percent(self):
        curves = run_figure6(sequence_lengths_k=[64, 256, 576, 640])
        share = curves["attention_share"].y
        assert share == sorted(share)
        assert share[-1] > 0.9
        assert curves["flops_share"].y[-1] > 0.9


class TestTable3:
    @pytest.fixture(scope="class")
    def small_grid(self):
        return run_table3(
            workloads=[("7B", 8)], sequence_lengths_k=[64, 256, 1024],
        )

    def test_memo_wins_on_every_feasible_cell(self, small_grid):
        for length in (64, 256):
            memo = small_grid.cell("7B", length, "Memo").report
            for system in ("DS", "Mega"):
                baseline = small_grid.cell("7B", length, system).report
                assert memo.feasible
                if baseline.feasible:
                    assert memo.mfu > baseline.mfu

    def test_memo_reaches_one_million_tokens(self, small_grid):
        memo = small_grid.cell("7B", 1024, "Memo").report
        assert memo.feasible and memo.mfu > 0.45
        assert not small_grid.cell("7B", 1024, "Mega").report.feasible
        assert not small_grid.cell("7B", 1024, "DS").report.feasible

    def test_aggregates_and_rendering(self, small_grid):
        assert small_grid.average_mfu("Memo") > small_grid.average_mfu("Mega")
        assert small_grid.mfu_ratio("Memo", "Mega") > 1.2
        assert small_grid.max_sequence_length_k("7B", "Memo") == 1024
        table = small_grid.to_table("mfu")
        assert "SeqLen" in table.columns[0]
        assert len(table.rows) == 3


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table4(sequence_lengths_k=(64, 256, 384))

    def test_memory_planning_improves_full_recomputation(self, result):
        no_plan = result.mfu("Full Recomputation", 256)
        with_plan = result.mfu("Full Recomputation + Memory Plan", 256)
        assert no_plan is not None and with_plan is not None
        assert with_plan > no_plan

    def test_memo_beats_every_ablation(self, result):
        memo_label = "Memo (Fine-grained Management + Memory Plan)"
        for length in (64, 256, 384):
            memo = result.mfu(memo_label, length)
            assert memo is not None
            for label in ("Full Recomputation", "Full Recomputation + Memory Plan"):
                other = result.mfu(label, length)
                if other is not None:
                    assert memo >= other - 1e-9

    def test_full_swapping_fails_at_long_context(self, result):
        assert result.mfu("Full Swapping + Memory Plan", 256) is not None
        assert result.mfu("Full Swapping + Memory Plan", 384) is None
        assert result.max_sequence_length_k("Full Swapping + Memory Plan") == 256

    def test_rendering(self, result):
        assert "64K" in result.to_table().columns[1]


class TestTable5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table5(
            sequence_lengths_k=(192, 320), alphas=(0.0, 0.5, 0.75, 0.875, 1.0),
        )

    def test_mfu_increases_with_alpha_until_constrained(self, result):
        assert result.mfu(192, 0.5) > result.mfu(192, 0.0)
        assert result.best_alpha(192) >= 0.5

    def test_host_memory_limits_alpha_at_320k(self, result):
        assert result.mfu(320, 1.0) is None
        assert result.largest_feasible_alpha(320) <= 0.875

    def test_rendering(self, result):
        table = result.to_table()
        assert len(table.rows) == 2


class TestFigure11:
    def test_scalability_memo_reaches_the_longest_sequences(self):
        grid = [512, 1024, 2048, 4096, 8192]
        series = run_figure11a(gpu_counts=(8, 64), length_grid_k=grid)
        memo = dict(zip(series["MEMO"].x, series["MEMO"].y))
        megatron = dict(zip(series["Megatron-LM"].x, series["Megatron-LM"].y))
        assert memo[8] >= 1024
        assert memo[64] > memo[8]
        assert memo[8] > megatron[8]
        assert memo[64] > megatron[64]

    def test_figure11c_memo_sustains_mfu_at_extreme_lengths(self):
        series = run_figure11c(sequence_lengths_k=(2048, 4096))
        assert min(series["MEMO"].y) > 0.45
        assert max(series["DeepSpeed"].y) < min(series["MEMO"].y)

    def test_figure11d_loss_curves_coincide(self):
        config = MiniGPTConfig(
            vocab_size=64, hidden_size=32, ffn_hidden_size=64, num_layers=4,
            num_heads=4, max_sequence_length=64,
        )
        runs = run_figure11d(alphas=(None, 0.5, 1.0), num_iterations=8, config=config)
        assert max_loss_divergence(runs) < 1e-9
        baseline = next(iter(runs.values()))
        assert len(baseline.losses) == 8
