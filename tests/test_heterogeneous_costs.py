"""Tests for the heterogeneous per-stage cost profile and its pipeline lowering."""

import pytest

from repro.config import tokens
from repro.hardware.cluster import make_a800_cluster
from repro.model.specs import get_model_config
from repro.parallel.strategy import ParallelismConfig
from repro.sim.costs import CostModel, StageCostProfile, uneven_layer_partition
from repro.sim.pipeline import (
    StageCosts,
    heterogeneous_stage_costs,
    simulate_pipeline,
    stage_costs_from_iteration,
)
from repro.sim.schedules import ScheduleKind, build_schedule


def make_cost_model(pp=4, tp=2, seqlen_k=64):
    model = get_model_config("7B")
    return CostModel(
        model=model,
        cluster=make_a800_cluster(8),
        parallel=ParallelismConfig(
            tensor_parallel=tp, pipeline_parallel=pp, data_parallel=1,
            micro_batches=8,
        ),
    )


class TestUnevenLayerPartition:
    def test_no_extras_reproduces_the_uniform_split(self):
        assert uneven_layer_partition(32, 4, layer_time_s=1.0) == (8, 8, 8, 8)
        assert uneven_layer_partition(6, 3, layer_time_s=0.25) == (2, 2, 2)

    def test_remainder_spreads_from_the_front(self):
        assert uneven_layer_partition(10, 4, layer_time_s=1.0) == (3, 3, 2, 2)

    def test_boundary_extras_dock_boundary_stages(self):
        counts = uneven_layer_partition(
            32, 4, layer_time_s=1.0, embedding_time_s=2.0, classifier_time_s=4.0,
        )
        assert sum(counts) == 32
        assert counts[0] < max(counts[1:-1])
        assert counts[-1] < max(counts[1:-1])
        assert counts[-1] <= counts[0]  # classifier is heavier than embedding

    def test_every_stage_keeps_at_least_one_layer(self):
        counts = uneven_layer_partition(
            4, 4, layer_time_s=1.0, classifier_time_s=1000.0,
        )
        assert counts == (1, 1, 1, 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="spread"):
            uneven_layer_partition(3, 4, layer_time_s=1.0)
        with pytest.raises(ValueError, match="non-negative"):
            uneven_layer_partition(8, 2, layer_time_s=-1.0)


class TestStageCostProfile:
    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            StageCostProfile(layers_per_stage=())
        with pytest.raises(ValueError, match="at least one layer"):
            StageCostProfile(layers_per_stage=(2, 0))
        with pytest.raises(ValueError, match="non-negative"):
            StageCostProfile(layers_per_stage=(2, 2), embedding_forward_s=-1.0)
        with pytest.raises(ValueError, match="backward_weight_fraction"):
            StageCostProfile(layers_per_stage=(2,), backward_weight_fraction=1.5)

    def test_cost_model_profile_covers_every_layer(self):
        cost_model = make_cost_model()
        profile = cost_model.stage_cost_profile(tokens(64), 4)
        assert profile.total_layers == cost_model.model.num_layers
        assert profile.num_virtual_stages == 4
        assert profile.classifier_forward_s > 0
        assert profile.embedding_forward_s > 0
        assert 0.0 <= profile.backward_weight_fraction <= 0.5

    def test_single_stage_profile_degenerates_to_the_whole_model(self):
        cost_model = make_cost_model(pp=1)
        profile = cost_model.stage_cost_profile(tokens(64), 1)
        assert profile.layers_per_stage == (cost_model.model.num_layers,)


class TestBackwardWeightShare:
    def test_share_shrinks_with_sequence_length(self):
        """Attention (no wgrad) dominates long contexts, so the W share drops."""
        cost_model = make_cost_model()
        short = cost_model.layer_costs(tokens(16)).backward_weight_share
        long = cost_model.layer_costs(tokens(1024)).backward_weight_share
        assert 0.0 < long < short <= 0.5


class TestHeterogeneousStageCosts:
    def test_all_equal_stages_reproduce_the_uniform_costs_exactly(self):
        profile = StageCostProfile(layers_per_stage=(8, 8, 8, 8))
        stages = heterogeneous_stage_costs(
            profile, 0.25, 0.5, p2p_bytes=3.0, activation_bytes_per_layer=2.0,
        )
        uniform = StageCosts(
            forward_s=8 * 0.25, backward_s=8 * 0.5, p2p_bytes=3.0,
            activation_bytes=8 * 2.0,
        )
        assert stages == [uniform] * 4

    def test_boundary_stages_carry_the_extras(self):
        profile = StageCostProfile(
            layers_per_stage=(7, 8, 8, 7),
            embedding_forward_s=0.1, embedding_backward_s=0.2,
            classifier_forward_s=0.4, classifier_backward_s=0.8,
        )
        stages = heterogeneous_stage_costs(profile, 1.0, 2.0)
        assert stages[0].forward_s == pytest.approx(7.0 + 0.1)
        assert stages[0].backward_s == pytest.approx(14.0 + 0.2)
        assert stages[1].forward_s == pytest.approx(8.0)
        assert stages[3].forward_s == pytest.approx(7.0 + 0.4)
        assert stages[3].backward_s == pytest.approx(14.0 + 0.8)

    def test_split_backward_marks_deferable_work(self):
        profile = StageCostProfile(
            layers_per_stage=(4, 4),
            embedding_backward_s=0.2, classifier_backward_s=0.8,
            backward_weight_fraction=0.25,
        )
        stages = heterogeneous_stage_costs(
            profile, 1.0, 2.0, activation_bytes_per_layer=1.0, split_backward=True,
        )
        # Embedding backward is pure grad-weight work; classifier backward is
        # half dgrad, half wgrad.
        assert stages[0].split_backward_weight_s == pytest.approx(0.25 * 8.0 + 0.2)
        assert stages[1].split_backward_weight_s == pytest.approx(0.25 * 8.0 + 0.4)
        for stage in stages:
            assert stage.split_backward_input_s + stage.split_backward_weight_s == (
                pytest.approx(stage.backward_s)
            )
            assert stage.weight_grad_bytes > 0

    def test_fused_schedules_see_no_split_fields(self):
        profile = StageCostProfile(layers_per_stage=(4, 4))
        stages = heterogeneous_stage_costs(profile, 1.0, 2.0)
        for stage in stages:
            assert stage.backward_weight_s is None
            assert stage.weight_grad_bytes == 0.0

    def test_validation(self):
        profile = StageCostProfile(layers_per_stage=(4, 4))
        with pytest.raises(ValueError, match="non-negative"):
            heterogeneous_stage_costs(profile, -1.0, 2.0)


class TestHeterogeneousSimulation:
    def test_imbalanced_stages_raise_the_measured_bubble(self):
        schedule = build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8)
        uniform = simulate_pipeline(
            schedule,
            heterogeneous_stage_costs(
                StageCostProfile(layers_per_stage=(8, 8, 8, 8)), 0.1, 0.2,
            ),
        )
        skewed = simulate_pipeline(
            schedule,
            heterogeneous_stage_costs(
                StageCostProfile(
                    layers_per_stage=(8, 8, 8, 8), classifier_forward_s=0.4,
                    classifier_backward_s=0.8,
                ),
                0.1, 0.2,
            ),
        )
        assert skewed.bubble_fraction > uniform.bubble_fraction

    def test_uniform_path_matches_stage_costs_from_iteration(self):
        """The heterogeneous lowering of an even partition with zero extras is
        byte-for-byte the legacy uniform broadcast."""
        from repro.sim.executor import LayerTask, simulate_iteration

        iteration = simulate_iteration(
            [LayerTask(forward_compute_s=0.5, backward_compute_s=1.0)] * 8,
            pcie_bandwidth_bytes_per_s=1e9,
        )
        legacy = stage_costs_from_iteration(iteration, p2p_bytes=2.0, activation_bytes=8.0)
        profile = StageCostProfile(layers_per_stage=(8, 8, 8, 8))
        stages = heterogeneous_stage_costs(
            profile,
            iteration.forward_end_s / 8,
            (iteration.total_s - iteration.forward_end_s) / 8,
            p2p_bytes=2.0,
            activation_bytes_per_layer=1.0,
        )
        for stage in stages:
            assert stage.forward_s == pytest.approx(legacy.forward_s, rel=1e-12)
            assert stage.backward_s == pytest.approx(legacy.backward_s, rel=1e-12)
            assert stage.activation_bytes == pytest.approx(legacy.activation_bytes)
