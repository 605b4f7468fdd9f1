"""Tests for parallelism strategy configuration and enumeration."""

import warnings

import pytest

from repro.parallel.search import StrategySearchSpace, enumerate_strategies, find_best_strategy
from repro.parallel.strategy import (
    DegenerateScheduleWarning,
    OffloadMode,
    ParallelismConfig,
    RecomputeMode,
)


class TestParallelismConfig:
    def test_total_gpus_is_product_of_degrees(self):
        config = ParallelismConfig(tensor_parallel=4, context_parallel=2, data_parallel=2)
        assert config.total_gpus == 16
        assert config.model_parallel_size == 8
        assert config.sequence_shards == 2

    def test_local_sequence_length_rounds_up(self):
        config = ParallelismConfig(context_parallel=3)
        assert config.local_sequence_length(10) == 4

    def test_layers_per_stage(self, gpt7b):
        assert ParallelismConfig(pipeline_parallel=4).layers_per_stage(gpt7b) == 8

    def test_describe_mentions_active_degrees(self):
        config = ParallelismConfig(tensor_parallel=4, zero_stage=1,
                                   recompute=RecomputeMode.FULL)
        text = config.describe()
        assert "TP=4" in text and "ZeRO-1" in text and "full" in text

    def test_with_updates_is_pure(self):
        config = ParallelismConfig(tensor_parallel=4)
        updated = config.with_updates(offload=OffloadMode.TOKEN_WISE)
        assert config.offload is OffloadMode.NONE
        assert updated.offload is OffloadMode.TOKEN_WISE

    def test_rejects_invalid_values(self):
        with pytest.raises(ValueError):
            ParallelismConfig(tensor_parallel=0)
        with pytest.raises(ValueError):
            ParallelismConfig(zero_stage=4)


class TestMicroBatchValidation:
    def test_degenerate_schedule_warns_but_constructs(self):
        with pytest.warns(DegenerateScheduleWarning, match="micro_batches"):
            config = ParallelismConfig(pipeline_parallel=4, micro_batches=2)
        assert config.has_degenerate_schedule
        assert config.pipeline_bubble_lower_bound() == pytest.approx(3 / 5)

    def test_strict_micro_batching_rejects_degenerate_schedules(self):
        with pytest.raises(ValueError, match="degenerate"):
            ParallelismConfig(
                pipeline_parallel=4, micro_batches=2, strict_micro_batching=True,
            )

    def test_sufficient_micro_batches_stay_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateScheduleWarning)
            config = ParallelismConfig(pipeline_parallel=4, micro_batches=4)
            strict = ParallelismConfig(
                pipeline_parallel=4, micro_batches=8, strict_micro_batching=True,
            )
        assert not config.has_degenerate_schedule
        assert not strict.has_degenerate_schedule

    def test_no_pipeline_means_no_constraint(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegenerateScheduleWarning)
            config = ParallelismConfig(micro_batches=1, strict_micro_batching=True)
        assert config.pipeline_bubble_lower_bound() == 0.0

    def test_strict_flag_does_not_change_equality_or_hashing(self):
        relaxed = ParallelismConfig(tensor_parallel=4)
        strict = ParallelismConfig(tensor_parallel=4, strict_micro_batching=True)
        assert relaxed == strict
        assert hash(relaxed) == hash(strict)

    def test_enumerate_with_global_batch_sets_real_micro_batches(self, gpt7b):
        space = StrategySearchSpace(tensor_parallel=(1,), pipeline_parallel=(2,))
        candidates = enumerate_strategies(space, gpt7b, 8, global_batch_samples=16)
        for candidate in candidates:
            assert candidate.micro_batches == 16 // candidate.data_parallel
            assert not candidate.has_degenerate_schedule


class TestEnumeration:
    def test_all_candidates_use_exactly_the_gpu_count(self, gpt7b):
        space = StrategySearchSpace(
            tensor_parallel=(1, 2, 4, 8), context_parallel=(1, 2), pipeline_parallel=(1, 2),
        )
        for candidate in enumerate_strategies(space, gpt7b, 8):
            assert candidate.total_gpus == 8
            assert gpt7b.num_heads % (candidate.tensor_parallel * candidate.ulysses_parallel) == 0
            assert gpt7b.num_layers % candidate.pipeline_parallel == 0

    def test_head_divisibility_enforced(self, gpt65b):
        space = StrategySearchSpace(tensor_parallel=(1,), ulysses_parallel=(1, 2, 4, 8, 16, 64))
        candidates = enumerate_strategies(space, gpt65b, 64)
        assert all(gpt65b.num_heads % c.ulysses_parallel == 0 for c in candidates)

    def test_tensor_parallel_span_limit(self, gpt7b):
        space = StrategySearchSpace(tensor_parallel=(8, 16, 32), max_tensor_parallel_span_nodes=1)
        candidates = enumerate_strategies(space, gpt7b, 64, gpus_per_node=8)
        assert all(c.tensor_parallel <= 8 for c in candidates)

    def test_no_op_zero_deduplicated(self, gpt7b):
        space = StrategySearchSpace(
            tensor_parallel=(8,), zero_stages=(0, 1),
            recompute_modes=(RecomputeMode.NONE,), offload_modes=(OffloadMode.NONE,),
        )
        candidates = enumerate_strategies(space, gpt7b, 8)
        # dp = cp = ulysses = 1, so ZeRO-1 is a no-op and only stage 0 is kept.
        assert len(candidates) == 1
        assert candidates[0].zero_stage == 0

    def test_rejects_bad_gpu_count(self, gpt7b):
        with pytest.raises(ValueError):
            enumerate_strategies(StrategySearchSpace(), gpt7b, 0)


class TestFindBest:
    def test_picks_fastest_feasible(self, gpt7b):
        space = StrategySearchSpace(tensor_parallel=(1, 2, 4, 8))
        candidates = enumerate_strategies(space, gpt7b, 8)

        def evaluate(parallel):
            feasible = parallel.tensor_parallel >= 2
            return feasible, 100.0 / parallel.tensor_parallel, None if feasible else "oom"

        best, evaluated = find_best_strategy(candidates, evaluate)
        assert best is not None
        assert best.parallel.tensor_parallel == 8
        assert len(evaluated) == len(candidates)

    def test_returns_none_when_nothing_feasible(self, gpt7b):
        candidates = enumerate_strategies(StrategySearchSpace(tensor_parallel=(1, 2)), gpt7b, 8)
        best, evaluated = find_best_strategy(candidates, lambda p: (False, float("inf"), "oom"))
        assert best is None
        assert all(not record.feasible for record in evaluated)
