"""Tests for the offline DSA problem construction and plan validation."""

import dataclasses

import pytest

from repro.memory.request import MemoryRequest, RequestKind
from repro.planner.dsa import DSATensor, problem_from_tensors, problem_from_trace
from repro.planner.plan import MemoryPlan, PlanEntry, TiledEntries


def tensors_abc():
    return [
        DSATensor("a", size=100, start=0, end=4),
        DSATensor("b", size=50, start=2, end=6),
        DSATensor("c", size=70, start=5, end=8),
    ]


class TestDSATensor:
    def test_conflict_detection(self):
        a, b, c = tensors_abc()
        assert a.conflicts_with(b)
        assert b.conflicts_with(c)
        assert not a.conflicts_with(c)

    def test_rejects_empty_lifespan(self):
        with pytest.raises(ValueError):
            DSATensor("x", size=1, start=3, end=3)

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            DSATensor("x", size=0, start=0, end=1)


class TestProblemConstruction:
    def test_conflicts_computed(self):
        problem = problem_from_tensors(tensors_abc())
        assert problem.conflicting("a", "b")
        assert problem.conflicting("b", "a")
        assert not problem.conflicting("a", "c")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            problem_from_tensors([
                DSATensor("a", 1, 0, 1), DSATensor("a", 1, 1, 2),
            ])

    def test_lower_bound_is_max_concurrent_bytes(self):
        problem = problem_from_tensors(tensors_abc())
        assert problem.lower_bound_bytes() == 150  # a and b overlap

    def test_total_bytes(self):
        assert problem_from_tensors(tensors_abc()).total_bytes == 220

    def test_from_trace(self):
        trace = [
            MemoryRequest(RequestKind.MALLOC, "x", 10),
            MemoryRequest(RequestKind.MALLOC, "y", 20),
            MemoryRequest(RequestKind.FREE, "x", 10),
            MemoryRequest(RequestKind.FREE, "y", 20),
        ]
        problem = problem_from_trace(trace)
        assert problem.num_tensors == 2
        assert problem.conflicting("x", "y")

    def test_from_layer_trace(self, small_layer_trace):
        problem = problem_from_trace(small_layer_trace)
        assert problem.num_tensors == len(
            {r.tensor_id for r in small_layer_trace if r.kind is RequestKind.MALLOC}
        )
        assert problem.lower_bound_bytes() > 0


class TestPlanValidation:
    def test_valid_plan_passes(self):
        problem = problem_from_tensors(tensors_abc())
        plan = MemoryPlan.of([
            PlanEntry("a", 0, 100),
            PlanEntry("b", 100, 50),
            PlanEntry("c", 0, 70),
        ], "test")
        problem.validate_plan(plan)

    def test_missing_tensor_rejected(self):
        problem = problem_from_tensors(tensors_abc())
        plan = MemoryPlan.of([PlanEntry("a", 0, 100)], "test")
        with pytest.raises(ValueError, match="missing"):
            problem.validate_plan(plan)

    def test_size_mismatch_rejected(self):
        problem = problem_from_tensors(tensors_abc())
        plan = MemoryPlan.of([
            PlanEntry("a", 0, 99),
            PlanEntry("b", 100, 50),
            PlanEntry("c", 200, 70),
        ], "test")
        with pytest.raises(ValueError, match="size mismatch"):
            problem.validate_plan(plan)

    def test_conflicting_overlap_rejected(self):
        problem = problem_from_tensors(tensors_abc())
        plan = MemoryPlan.of([
            PlanEntry("a", 0, 100),
            PlanEntry("b", 50, 50),  # overlaps a while conflicting
            PlanEntry("c", 200, 70),
        ], "test")
        with pytest.raises(ValueError, match="overlap"):
            problem.validate_plan(plan)


class TestMemoryPlan:
    def test_peak_tracks_max_end(self):
        plan = MemoryPlan.of([
            PlanEntry("a", 0, 10),
            PlanEntry("b", 50, 10),
        ], "test")
        assert plan.peak_bytes == 60

    def test_duplicate_entry_rejected(self):
        with pytest.raises(ValueError, match="'a' already planned"):
            MemoryPlan.of([PlanEntry("a", 0, 10), PlanEntry("a", 10, 10)], "test")

    def test_tiled_plan_is_read_only(self):
        entries = TiledEntries({"embed": PlanEntry("embed", 0, 8)}, [("fwd.x", 8, 4)], num_layers=2)
        plan = MemoryPlan(entries, peak_bytes=12, solver="tiled")
        assert len(plan) == 3 and entries._table is None
        assert list(plan.entries) == ["embed", "L0.fwd.x", "L1.fwd.x"]
        assert plan.get("L1.fwd.x") == PlanEntry("L1.fwd.x", 8, 4)
        assert "L2.fwd.x" not in plan
        with pytest.raises(TypeError):
            plan.entries["b"] = PlanEntry("b", 20, 10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.peak_bytes = 0

    def test_tiled_plan_without_layers_holds_the_model_entries(self):
        # With no layer to stamp, a repeated suffix never inserts a name twice.
        entries = TiledEntries({"L0.fwd.x": PlanEntry("L0.fwd.x", 0, 8)}, [("fwd.x", 8, 4)] * 2, 0)
        assert dict(entries) == {"L0.fwd.x": PlanEntry("L0.fwd.x", 0, 8)}

    def test_union_of_disjoint_plans(self):
        first = MemoryPlan.of([PlanEntry("a", 0, 10)], "test")
        second = MemoryPlan.of([PlanEntry("b", 20, 10)], "test")
        union = MemoryPlan.union([first, second])
        assert len(union) == 2
        assert union.peak_bytes == 30
        with pytest.raises(ValueError, match="'a' already planned"):
            MemoryPlan.union([first, union])

    def test_entry_overlap_detection(self):
        assert PlanEntry("a", 0, 10).overlaps(PlanEntry("b", 5, 10))
        assert not PlanEntry("a", 0, 10).overlaps(PlanEntry("b", 10, 10))
