"""Tests for rounding buffers, the host budget and the swap schedule builder."""

import pytest

from repro.config import GiB
from repro.sim.executor import LayerTask, simulate_iteration
from repro.swap.buffers import RoundingBuffers
from repro.swap.host_memory import HostMemoryBudget, HostOutOfMemoryError
from repro.swap.schedule import build_swap_schedule


class TestRoundingBuffers:
    def test_even_odd_assignment(self):
        buffers = RoundingBuffers(buffer_bytes=100)
        assignments = buffers.assignments(6)
        assert [a.buffer_index for a in assignments] == [0, 1, 0, 1, 0, 1]

    def test_total_bytes(self):
        assert RoundingBuffers(buffer_bytes=100, num_buffers=2).total_bytes == 200

    def test_reuse_dependency(self):
        # Layer i overwrites the buffer of layer i - num_buffers, so its
        # forward pass waits for that layer's offload; the first
        # num_buffers layers write into untouched buffers.
        buffers = RoundingBuffers(buffer_bytes=100)
        slots = [a.buffer_index for a in buffers.assignments(6)]
        assert slots[:2] == [0, 1]
        assert all(slots[i] == slots[i - 2] for i in range(2, 6))
        tasks = [LayerTask(1.0, 1.0, offload_bytes=3e9, prefetch_bytes=3e9)] * 6
        starts = simulate_iteration(
            tasks, pcie_bandwidth_bytes_per_s=1e9, num_buffers=buffers.num_buffers,
            d2h_latency_s=0.0,
        ).layer_forward_starts
        assert starts[:2] == [0.0, 1.0]
        # Layer 2 waits for layer 0's offload (1 s compute + 3 s copy).
        assert starts[2] == pytest.approx(4.0)

    def test_requires_two_buffers(self):
        with pytest.raises(ValueError):
            RoundingBuffers(buffer_bytes=10, num_buffers=1)

    def test_negative_layer_rejected(self):
        with pytest.raises(ValueError):
            RoundingBuffers(buffer_bytes=10).assignment(-1)


class TestHostMemoryBudget:
    def test_accounting(self):
        budget = HostMemoryBudget(capacity_bytes=100)
        budget.offload(0, 40)
        budget.offload(1, 40)
        assert budget.used_bytes == 80
        assert budget.free_bytes == 20
        assert budget.release(0) == 40
        assert budget.used_bytes == 40

    def test_exhaustion_raises(self):
        budget = HostMemoryBudget(capacity_bytes=100)
        budget.offload(0, 90)
        with pytest.raises(HostOutOfMemoryError):
            budget.offload(1, 20)

    def test_peak_fraction(self):
        budget = HostMemoryBudget(capacity_bytes=200)
        budget.offload(0, 50)
        assert budget.peak_fraction() == pytest.approx(0.25)


class TestSwapScheduleBuilder:
    def build(self, gpt7b, **kwargs):
        defaults = dict(
            model=gpt7b,
            batch_size=1,
            sequence_length=64 * 1024,
            layer_forward_time_s=0.5,
            pcie_bandwidth_bytes_per_s=12 * GiB,
            host_capacity_bytes=128 * GiB,
            tensor_shards=4,
        )
        defaults.update(kwargs)
        return build_swap_schedule(**defaults)

    def test_last_two_layers_resident(self, gpt7b):
        schedule = self.build(gpt7b)
        resident = [plan for plan in schedule.layers if plan.offload_bytes == 0 and plan.recompute_bytes == 0]
        assert len(resident) == 2
        assert {plan.layer_index for plan in resident} == {gpt7b.num_layers - 1, gpt7b.num_layers - 2}

    def test_alpha_zero_offloads_only_mandatory_tensors(self, gpt7b):
        schedule = self.build(gpt7b, alpha=0.0)
        plan = schedule.layers[0]
        assert plan.offload_bytes == pytest.approx(plan.skeletal_bytes * 2 / 16, rel=1e-6)
        assert plan.recompute_bytes == pytest.approx(plan.skeletal_bytes * 14 / 16, rel=1e-6)

    def test_alpha_one_offloads_everything(self, gpt7b):
        schedule = self.build(gpt7b, alpha=1.0)
        plan = schedule.layers[0]
        assert plan.recompute_bytes == 0
        assert plan.offload_bytes == pytest.approx(plan.skeletal_bytes, rel=1e-6)

    def test_solved_alpha_respects_host_budget(self, gpt7b):
        schedule = self.build(gpt7b, host_capacity_bytes=32 * GiB)
        assert schedule.feasible
        assert schedule.host_bytes_used <= 32 * GiB * (1 + 1e-9)

    def test_fixed_alpha_can_exhaust_host_memory(self, gpt7b):
        schedule = self.build(gpt7b, alpha=1.0, host_capacity_bytes=8 * GiB)
        assert not schedule.feasible

    def test_tensor_shards_scale_sizes_down(self, gpt7b):
        unsharded = self.build(gpt7b, tensor_shards=1, alpha=0.5)
        sharded = self.build(gpt7b, tensor_shards=4, alpha=0.5)
        assert sharded.layers[0].skeletal_bytes == pytest.approx(
            unsharded.layers[0].skeletal_bytes / 4
        )

    def test_recompute_fraction_matches_alpha(self, gpt7b):
        schedule = self.build(gpt7b, alpha=0.25)
        assert schedule.recompute_fraction(0) == pytest.approx(0.75)
        assert schedule.recompute_fraction(gpt7b.num_layers - 1) == 0.0

    def test_invalid_alpha_rejected(self, gpt7b):
        with pytest.raises(ValueError):
            self.build(gpt7b, alpha=1.5)

    def test_buffer_sized_to_one_layer(self, gpt7b):
        schedule = self.build(gpt7b)
        assert schedule.buffers.buffer_bytes == pytest.approx(
            schedule.layers[0].skeletal_bytes, rel=1e-6
        )
