"""Tests for the plan-driven static allocator."""

import pytest

from repro.memory.planned_allocator import PlannedAllocator, PlanViolationError
from repro.memory.request import MemoryRequest, RequestKind
from repro.planner.plan import MemoryPlan, PlanEntry


def simple_plan():
    return MemoryPlan.of([
        PlanEntry("a", 0, 100),
        PlanEntry("b", 100, 50),
        PlanEntry("c", 0, 60),  # reuses a's region (they never overlap in time)
    ], "test")


class TestPlannedAllocator:
    def test_malloc_returns_planned_address(self):
        allocator = PlannedAllocator(plan=simple_plan())
        assert allocator.malloc("a", 100) == 0
        assert allocator.malloc("b", 50) == 100

    def test_reserved_is_plan_peak(self):
        allocator = PlannedAllocator(plan=simple_plan())
        assert allocator.reserved_bytes == 150
        allocator.malloc("a", 100)
        assert allocator.reserved_bytes == 150

    def test_unknown_tensor_rejected(self):
        allocator = PlannedAllocator(plan=simple_plan())
        with pytest.raises(PlanViolationError, match="not in the memory plan"):
            allocator.malloc("ghost", 10)

    def test_size_mismatch_rejected(self):
        allocator = PlannedAllocator(plan=simple_plan())
        with pytest.raises(PlanViolationError, match="planned size"):
            allocator.malloc("a", 99)

    def test_overlapping_live_tensors_rejected(self):
        allocator = PlannedAllocator(plan=simple_plan())
        allocator.malloc("a", 100)
        with pytest.raises(PlanViolationError, match="overlaps"):
            allocator.malloc("c", 60)

    def test_address_reuse_after_free_is_allowed(self):
        allocator = PlannedAllocator(plan=simple_plan())
        allocator.malloc("a", 100)
        allocator.free("a")
        assert allocator.malloc("c", 60) == 0

    def test_double_free_rejected(self):
        allocator = PlannedAllocator(plan=simple_plan())
        allocator.malloc("a", 100)
        allocator.free("a")
        with pytest.raises(PlanViolationError):
            allocator.free("a")

    def test_capacity_enforced_at_construction(self):
        with pytest.raises(PlanViolationError, match="exceeds capacity"):
            PlannedAllocator(plan=simple_plan(), capacity_bytes=100)

    def test_replay(self):
        allocator = PlannedAllocator(plan=simple_plan())
        trace = [
            MemoryRequest(RequestKind.MALLOC, "a", 100),
            MemoryRequest(RequestKind.FREE, "a", 100),
            MemoryRequest(RequestKind.MALLOC, "c", 60),
            MemoryRequest(RequestKind.FREE, "c", 60),
        ]
        allocator.replay(trace)
        assert allocator.allocated_bytes == 0
        assert len(allocator.timeline) == 4
