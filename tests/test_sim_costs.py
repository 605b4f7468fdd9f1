"""Tests for the analytical cost model."""

import pytest

from repro.config import GiB
from repro.parallel.strategy import ParallelismConfig
from repro.sim.costs import CostModel


def make_cost_model(gpt7b, cluster8, **parallel_kwargs):
    parallel = ParallelismConfig(**parallel_kwargs)
    return CostModel(model=gpt7b, cluster=cluster8, parallel=parallel)


class TestLayerCosts:
    def test_costs_positive_and_consistent(self, gpt7b, cluster8):
        costs = make_cost_model(gpt7b, cluster8, tensor_parallel=8).layer_costs(65536)
        assert costs.forward_compute_s > 0
        assert costs.backward_compute_s == pytest.approx(2 * costs.forward_compute_s)
        assert costs.forward_attention_s < costs.forward_compute_s
        assert costs.recompute_s == costs.forward_compute_s
        assert costs.partial_recompute_s < costs.forward_compute_s

    def test_partial_recompute_excludes_attention(self, gpt7b, cluster8):
        """At very long context the partial recompute is a tiny fraction of a
        full forward pass -- the paper's justification for token-wise
        recomputation."""
        costs = make_cost_model(gpt7b, cluster8, tensor_parallel=8).layer_costs(1 << 20)
        assert costs.partial_recompute_s < 0.1 * costs.recompute_s

    def test_attention_dominates_long_context(self, gpt7b, cluster8):
        costs = make_cost_model(gpt7b, cluster8, tensor_parallel=8).layer_costs(640 * 1024)
        assert costs.forward_attention_s / costs.forward_compute_s > 0.85

    def test_model_parallelism_reduces_per_gpu_time(self, gpt7b, cluster8):
        single = make_cost_model(gpt7b, cluster8).layer_costs(65536)
        sharded = make_cost_model(gpt7b, cluster8, tensor_parallel=8).layer_costs(65536)
        assert sharded.forward_compute_s < single.forward_compute_s

    def test_offload_time_scales_linearly_with_sequence(self, gpt7b, cluster8):
        model = make_cost_model(gpt7b, cluster8, tensor_parallel=8)
        short = model.layer_costs(64 * 1024)
        long = model.layer_costs(256 * 1024)
        assert long.full_offload_s == pytest.approx(4 * short.full_offload_s, rel=0.01)

    def test_crossover_exists(self, gpt7b, cluster8):
        """Figure 1(b): compute grows quadratically, offload linearly, so at
        some sequence length the offload hides completely."""
        model = make_cost_model(gpt7b, cluster8, tensor_parallel=8)
        short = model.layer_costs(32 * 1024)
        long = model.layer_costs(512 * 1024)
        assert short.full_offload_s > 0
        assert long.forward_compute_s / long.full_offload_s > \
            short.forward_compute_s / short.full_offload_s

    def test_rejects_bad_sequence(self, gpt7b, cluster8):
        with pytest.raises(ValueError):
            make_cost_model(gpt7b, cluster8).layer_costs(0)


class TestCommunication:
    def test_tp_adds_comm_time(self, gpt7b, cluster8):
        plain = make_cost_model(gpt7b, cluster8).layer_costs(65536)
        tp = make_cost_model(gpt7b, cluster8, tensor_parallel=8).layer_costs(65536)
        assert plain.forward_comm_s == 0.0
        assert tp.forward_comm_s > 0.0

    def test_inter_node_tp_much_slower(self, gpt7b, cluster64):
        intra = CostModel(gpt7b, cluster64, ParallelismConfig(tensor_parallel=8, data_parallel=8))
        inter = CostModel(gpt7b, cluster64, ParallelismConfig(tensor_parallel=16, data_parallel=4))
        assert inter.layer_costs(65536).forward_comm_s > 2 * intra.layer_costs(65536).forward_comm_s

    def test_gradient_sync_covers_cp_and_dp(self, gpt7b, cluster8):
        dp_only = make_cost_model(gpt7b, cluster8, data_parallel=8)
        cp_only = make_cost_model(gpt7b, cluster8, context_parallel=8)
        none = make_cost_model(gpt7b, cluster8, tensor_parallel=8)
        params = gpt7b.num_parameters
        assert dp_only.gradient_sync_time(params) > 0
        assert cp_only.gradient_sync_time(params) > 0
        assert none.gradient_sync_time(params / 8) == 0.0

    def test_zero3_gather_only_with_stage3(self, gpt7b, cluster8):
        zero3 = make_cost_model(gpt7b, cluster8, ulysses_parallel=8, zero_stage=3)
        zero1 = make_cost_model(gpt7b, cluster8, ulysses_parallel=8, zero_stage=1)
        assert zero3.zero3_gather_time(gpt7b.num_parameters) > 0
        assert zero1.zero3_gather_time(gpt7b.num_parameters) == 0.0


class TestOtherCosts:
    def test_optimizer_time_scales_with_parameters(self, gpt7b, cluster8):
        model = make_cost_model(gpt7b, cluster8)
        assert model.optimizer_step_time(2e9) > model.optimizer_step_time(1e9)

    def test_pipeline_bubble_lower_bound(self):
        assert ParallelismConfig().pipeline_bubble_lower_bound() == 0.0
        pp = ParallelismConfig(pipeline_parallel=4, data_parallel=2, micro_batches=8)
        assert 0 < pp.pipeline_bubble_lower_bound() < 1
        assert pp.pipeline_bubble_lower_bound() == pytest.approx(3 / 11)

    def test_embedding_classifier_time_positive(self, gpt7b, cluster8):
        assert make_cost_model(gpt7b, cluster8).embedding_classifier_time(65536) > 0

    def test_pcie_offload_time(self, gpt7b, cluster8):
        model = make_cost_model(gpt7b, cluster8)
        assert model.pcie_offload_time(0) == 0.0
        assert model.pcie_offload_time(GiB) > 0
        with pytest.raises(ValueError):
            model.pcie_offload_time(-1)
