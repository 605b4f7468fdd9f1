"""Property-based tests (hypothesis) for the core data structures and solvers."""

from __future__ import annotations

import copy
import dataclasses
import random
import re
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.memory.caching_allocator import CachingAllocator, OutOfMemoryError
from repro.memory.planned_allocator import PlannedAllocator
from repro.memory.request import MemoryRequest, RequestKind, peak_live_bytes, validate_trace
from repro.memory.snapshot import TimelinePoint
from repro.model.specs import get_model_config
from repro.model.trace import full_model_trace
from repro.planner.bilevel import PSEUDO_LAYER_BLOCK, BiLevelPlanner
from repro.planner.dsa import DSATensor, problem_from_tensors, problem_from_trace
from repro.planner.exact import ExactSolverOptions, solve_exact
from repro.planner.heuristics import solve_best_fit, solve_first_fit_decreasing, solve_heuristic
from repro.planner.plan import MemoryPlan, PlanEntry
from repro.sim.executor import LayerTask, simulate_iteration
from repro.swap.alpha import AlphaProblem, solve_alpha
from repro.train.tensor_ops import layer_norm, layer_norm_backward, softmax

from frozen_allocator import LayeredAllocator


# --------------------------------------------------------------------- traces
@st.composite
def malloc_free_traces(draw, max_tensors=12):
    """Random well-formed malloc/free traces (interleaved lifetimes)."""
    num_tensors = draw(st.integers(min_value=1, max_value=max_tensors))
    sizes = [draw(st.integers(min_value=1, max_value=1 << 16)) for _ in range(num_tensors)]
    events: List[MemoryRequest] = []
    live: List[int] = []
    for index in range(num_tensors):
        # Randomly free some currently-live tensors before each new malloc.
        while live and draw(st.booleans()):
            victim = live.pop(draw(st.integers(min_value=0, max_value=len(live) - 1)))
            events.append(MemoryRequest(RequestKind.FREE, f"t{victim}", sizes[victim]))
        events.append(MemoryRequest(RequestKind.MALLOC, f"t{index}", sizes[index]))
        live.append(index)
    free_rest = draw(st.booleans())
    if free_rest:
        for victim in list(live):
            events.append(MemoryRequest(RequestKind.FREE, f"t{victim}", sizes[victim]))
    return events


class TestTraceProperties:
    @given(malloc_free_traces())
    @settings(max_examples=60, deadline=None)
    def test_generated_traces_are_valid(self, trace):
        validate_trace(trace)

    @given(malloc_free_traces())
    @settings(max_examples=60, deadline=None)
    def test_peak_live_bounded_by_total(self, trace):
        total = sum(r.size for r in trace if r.kind is RequestKind.MALLOC)
        peak = peak_live_bytes(trace)
        assert 0 <= peak <= total


class TestDSASolverProperties:
    @given(malloc_free_traces())
    @settings(max_examples=40, deadline=None)
    def test_heuristic_plans_are_valid_and_bounded(self, trace):
        problem = problem_from_trace(trace)
        for solver in (solve_best_fit, solve_first_fit_decreasing):
            plan = solver(problem)
            problem.validate_plan(plan)
            assert plan.peak_bytes >= problem.lower_bound_bytes()
            assert plan.peak_bytes <= problem.total_bytes

    @given(malloc_free_traces(max_tensors=7))
    @settings(max_examples=25, deadline=None)
    def test_exact_at_least_as_good_as_heuristics(self, trace):
        problem = problem_from_trace(trace)
        exact = solve_exact(problem)
        problem.validate_plan(exact)
        heuristic = min(
            solve_best_fit(problem).peak_bytes, solve_first_fit_decreasing(problem).peak_bytes
        )
        assert problem.lower_bound_bytes() <= exact.peak_bytes <= heuristic

    @given(malloc_free_traces(max_tensors=10))
    @settings(max_examples=30, deadline=None)
    def test_planned_allocator_replays_any_planned_trace(self, trace):
        problem = problem_from_trace(trace)
        plan = solve_best_fit(problem)
        allocator = PlannedAllocator(plan=plan)
        allocator.replay(trace)


class TestPlannerInvariants:
    """Planner invariants over randomized traces (issue 1 hardening)."""

    @staticmethod
    def _assert_no_live_overlap(problem, plan):
        """Explicitly re-derive the no-overlap invariant from lifespans."""
        tensors = {t.tensor_id: t for t in problem.tensors}
        entries = list(plan.entries.values())
        for i, a in enumerate(entries):
            for b in entries[i + 1:]:
                ta, tb = tensors[a.tensor_id], tensors[b.tensor_id]
                if ta.conflicts_with(tb):
                    assert not a.overlaps(b), (
                        f"{a.tensor_id} and {b.tensor_id} are live together "
                        f"but share addresses"
                    )

    @given(malloc_free_traces())
    @settings(max_examples=40, deadline=None)
    def test_heuristic_plans_never_overlap_live_tensors(self, trace):
        problem = problem_from_trace(trace)
        for solver in (solve_best_fit, solve_first_fit_decreasing):
            self._assert_no_live_overlap(problem, solver(problem))

    @given(malloc_free_traces(max_tensors=7))
    @settings(max_examples=20, deadline=None)
    def test_exact_plans_never_overlap_live_tensors_and_beat_heuristics(self, trace):
        problem = problem_from_trace(trace)
        exact = solve_exact(problem)
        self._assert_no_live_overlap(problem, exact)
        heuristic = min(
            solve_best_fit(problem).peak_bytes,
            solve_first_fit_decreasing(problem).peak_bytes,
        )
        assert exact.peak_bytes <= heuristic

    @given(st.integers(min_value=1, max_value=3), st.sampled_from([256, 1024]))
    @settings(max_examples=6, deadline=None)
    def test_bilevel_full_plan_covers_every_traced_tensor_once(
        self, num_layers, sequence_length,
    ):
        import dataclasses
        from collections import Counter

        from repro.model.specs import get_model_config
        from repro.model.trace import full_model_trace
        from repro.planner.bilevel import BiLevelPlanner

        model = dataclasses.replace(get_model_config("7B"), num_layers=num_layers)
        result = BiLevelPlanner(
            model, batch_size=1, sequence_length=sequence_length, use_exact=False,
        ).plan()
        trace = full_model_trace(model, 1, sequence_length, include_skeletal=False)
        traced = Counter(r.tensor_id for r in trace if r.kind is RequestKind.MALLOC)
        assert all(count == 1 for count in traced.values())
        assert set(traced) == set(result.full_plan.entries)


@st.composite
def dsa_tensor_lists(draw, max_tensors=14):
    """Tensors on a short time axis, so equal starts and touching lifespans abound."""
    num_tensors = draw(st.integers(min_value=0, max_value=max_tensors))
    tensors = []
    for index in range(num_tensors):
        start = draw(st.integers(min_value=0, max_value=6))
        length = draw(st.integers(min_value=1, max_value=4))
        size = draw(st.sampled_from([1, 3, 8, 64, 100, 512]))
        tensors.append(DSATensor(f"t{index}", size=size, start=start, end=start + length))
    return draw(st.permutations(tensors))


def _pairwise_conflicts(tensors):
    """Brute-force reference: every pair (in input order) with overlapping lifespans."""
    return {
        (a.tensor_id, b.tensor_id)
        for i, a in enumerate(tensors)
        for b in tensors[i + 1:]
        if a.start < b.end and b.start < a.end
    }


def _reference_placement(problem, order, best_fit: bool) -> List[PlanEntry]:
    """Frozen copy of the original placement: pairwise scan, merge, list gaps."""
    tensors = {t.tensor_id: t for t in problem.tensors}
    placed: Dict[str, PlanEntry] = {}
    result = []
    for tensor in order:
        conflicting = [
            entry for other_id, entry in placed.items()
            if tensors[other_id].conflicts_with(tensor)
        ]
        merged: List[Tuple[int, int]] = []
        for start, end in sorted((entry.address, entry.end) for entry in conflicting):
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        gaps: List[Tuple[int, Optional[int]]] = []
        cursor = 0
        for start, end in merged:
            if start - cursor >= tensor.size:
                gaps.append((cursor, start - cursor))
            cursor = max(cursor, end)
        gaps.append((cursor, None))
        bounded = [gap for gap in gaps if gap[1] is not None]
        if not best_fit:
            address = gaps[0][0]
        elif bounded:
            address = min(bounded, key=lambda gap: (gap[1], gap[0]))[0]
        else:
            address = gaps[-1][0]
        entry = PlanEntry(tensor.tensor_id, address, tensor.size)
        placed[tensor.tensor_id] = entry
        result.append(entry)
    return result


class TestDSAIndexProperties:
    """The sweep-line conflict build and indexed placement match the references."""

    @given(dsa_tensor_lists())
    # Equal starts conflict; lifespans that only touch ([0, 2) and [2, 4)) do not.
    @example([
        DSATensor("late", 1, 4, 6), DSATensor("a", 1, 0, 2),
        DSATensor("b", 1, 0, 3), DSATensor("touch", 1, 2, 4),
    ])
    @settings(max_examples=150, deadline=None)
    def test_sweep_conflicts_equal_pairwise_reference(self, tensors):
        problem = problem_from_tensors(tensors)
        assert problem.conflicts == frozenset(_pairwise_conflicts(tensors))
        for a in tensors:
            for b in tensors:
                if a is not b:
                    assert problem.conflicting(a.tensor_id, b.tensor_id) == a.conflicts_with(b)

    @given(dsa_tensor_lists())
    @settings(max_examples=100, deadline=None)
    def test_heuristic_plans_equal_reference_placement(self, tensors):
        problem = problem_from_tensors(tensors)
        for solver, key, best_fit in (
            (solve_best_fit, lambda t: (t.start, -t.size, t.tensor_id), True),
            (solve_first_fit_decreasing, lambda t: (-t.size, t.start, t.tensor_id), False),
        ):
            reference = _reference_placement(problem, sorted(tensors, key=key), best_fit)
            plan = solver(problem)
            assert list(plan.entries.values()) == reference
            assert plan.peak_bytes == max((entry.end for entry in reference), default=0)

    @given(dsa_tensor_lists(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_validate_plan_rejects_a_corrupted_overlap(self, tensors, data):
        problem = problem_from_tensors(tensors)
        assume(problem.conflicts)
        plan = solve_best_fit(problem)
        a, b = data.draw(st.sampled_from(sorted(problem.conflicts)))
        moved = PlanEntry(a, plan.entries[b].address, plan.entries[a].size)
        corrupted = MemoryPlan.of(
            (moved if entry.tensor_id == a else entry for entry in plan.entries.values()),
            plan.solver,
        )
        with pytest.raises(ValueError, match="overlap in the plan"):
            problem.validate_plan(corrupted)


class TestLifespanNativeDSA:
    """The planner answers overlap questions from lifespans, never from edges."""

    @given(
        dsa_tensor_lists(),
        # One address per tensor: dsa_tensor_lists draws at most 14 tensors.
        st.lists(st.integers(min_value=0, max_value=1024), min_size=14, max_size=14),
    )
    # Touching regions ([0, 8) and [8, 16)) do not overlap; an equal address does.
    @example(
        [DSATensor("a", 8, 0, 2), DSATensor("b", 8, 1, 3), DSATensor("c", 8, 1, 3)],
        [0, 8, 0] + [0] * 11,
    )
    @settings(max_examples=200, deadline=None)
    def test_validate_plan_equals_pairwise_reference(self, tensors, addresses):
        plan = MemoryPlan.of(
            (PlanEntry(tensor.tensor_id, address, tensor.size)
             for tensor, address in zip(tensors, addresses)),
            "drawn",
        )
        # Brute force: every conflicting pair, in input order, whose regions overlap.
        overlapping = {
            (a, b) for a, b in _pairwise_conflicts(tensors)
            if plan.entries[a].overlaps(plan.entries[b])
        }
        problem = problem_from_tensors(tensors)
        if not overlapping:
            problem.validate_plan(plan)
            return
        with pytest.raises(ValueError, match="overlap in the plan") as raised:
            problem.validate_plan(plan)
        named = re.match(r"conflicting tensors '(\w+)' and '(\w+)'", str(raised.value))
        assert named.groups() in overlapping

    @given(dsa_tensor_lists(max_tensors=10))
    # An instance where the search beats both heuristics (22 B against 25 B).
    @example([
        DSATensor("t0", 7, 3, 7), DSATensor("t1", 4, 4, 8), DSATensor("t2", 5, 2, 5),
        DSATensor("t3", 6, 3, 4), DSATensor("t4", 9, 5, 6),
    ])
    @settings(max_examples=100, deadline=None)
    def test_exact_plans_are_valid_with_touching_lifespans(self, tensors):
        # Branch-and-bound filters conflicts on the lifespans too; equal starts
        # and touching ends are where an off-by-one would show.
        problem = problem_from_tensors(tensors)
        exact = solve_exact(problem, ExactSolverOptions(max_nodes=5_000))
        problem.validate_plan(exact)
        for a, b in problem.conflicts:
            assert not exact.entries[a].overlaps(exact.entries[b])
        heuristic = min(
            solve_best_fit(problem).peak_bytes, solve_first_fit_decreasing(problem).peak_bytes
        )
        assert problem.lower_bound_bytes() <= exact.peak_bytes <= heuristic

    def test_heuristics_never_build_the_conflict_graph(self):
        trace = full_model_trace(get_model_config("7B"), 1, 1024, num_layers=2)
        problem = problem_from_trace(trace)
        plan = solve_heuristic(problem)
        assert "conflicts" not in problem.__dict__
        # Reading the edges builds them once, and the plan still respects them.
        for a, b in problem.conflicts:
            assert not plan.entries[a].overlaps(plan.entries[b])
        assert "conflicts" in problem.__dict__


def _eager_compose(planner, layer_forward_plan, layer_backward_plan, model_plan):
    """Frozen copy of the original composition: one added entry per layer and tensor."""
    entries = {}

    def add(entry):
        if entry.tensor_id in entries:
            raise ValueError(f"tensor {entry.tensor_id!r} already planned")
        entries[entry.tensor_id] = entry

    pseudo_entry = model_plan.get(PSEUDO_LAYER_BLOCK)
    pseudo_address = pseudo_entry.address if pseudo_entry is not None else 0
    for entry in model_plan.entries.values():
        if entry.tensor_id == PSEUDO_LAYER_BLOCK:
            continue
        add(entry)
    layer_entries = []
    for base_plan, pass_name in ((layer_forward_plan, "fwd"), (layer_backward_plan, "bwd")):
        for entry in base_plan.entries.values():
            suffix = entry.tensor_id.split(".", 1)[1]
            if suffix.startswith(pass_name):
                layer_entries.append((suffix, pseudo_address + entry.address, entry.size))
    for layer in range(planner.model.num_layers):
        for suffix, address, size in layer_entries:
            add(PlanEntry(tensor_id=f"L{layer}.{suffix}", address=address, size=size))
    peak = max([entry.end for entry in entries.values()] + [model_plan.peak_bytes])
    return MemoryPlan(entries, peak, f"bilevel({layer_forward_plan.solver})")


def _outcome(call):
    """A composed plan's entries in order, or the message of the ValueError it raised."""
    try:
        plan = call()
    except ValueError as error:
        return str(error)
    return list(plan.entries.items()), plan.peak_bytes, plan.solver


def _small_plan(num_layers):
    model = dataclasses.replace(get_model_config("7B"), num_layers=num_layers)
    planner = BiLevelPlanner(model, batch_size=1, sequence_length=256, use_exact=False)
    return planner, planner.plan()


class TestTiledBiLevelPlan:
    """The tiled full plan equals the eager per-layer composition it replaced."""

    @given(
        st.integers(min_value=1, max_value=80),
        st.sampled_from([256, 1024, 3072, 8192]),
        st.booleans(),
    )
    @example(32, 8192, True)
    @settings(max_examples=40, deadline=None)
    def test_tiled_full_plan_equals_eager_composition(self, num_layers, sequence_length, use_exact):
        model = dataclasses.replace(get_model_config("7B"), num_layers=num_layers)
        planner = BiLevelPlanner(model, batch_size=1, sequence_length=sequence_length, use_exact=use_exact)
        result = planner.plan()
        eager = _eager_compose(
            planner, result.layer_forward_plan, result.layer_backward_plan, result.model_plan,
        )
        tiled = result.full_plan
        # Length, peak and solver are set at composition, before any entry is named.
        assert (len(tiled), tiled.peak_bytes, tiled.solver) == (len(eager), eager.peak_bytes, eager.solver)
        assert tiled.entries._table is None
        assert list(tiled.entries.items()) == list(eager.entries.items())
        assert repr(tiled) == repr(eager) and tiled == eager
        with pytest.raises(TypeError):
            tiled.entries["extra"] = PlanEntry("extra", 0, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            tiled.peak_bytes = 0

    @given(st.integers(min_value=1, max_value=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_model_id_colliding_with_a_layer_id_raises_at_composition(self, num_layers, data):
        planner, result = _small_plan(num_layers)
        suffix = data.draw(st.sampled_from([
            entry.tensor_id.split(".", 1)[1] for entry in result.layer_forward_plan.entries.values()
        ] + ["fwd.not_in_the_tile"]))
        head = data.draw(st.sampled_from(["L0", "L1", "L3", "L4", "L03", "L-1", "Lx", "M1", ""]))
        extra = PlanEntry(f"{head}.{suffix}", 0, 1)
        model_plan = MemoryPlan.of([*result.model_plan.entries.values(), extra], result.model_plan.solver)
        plans = (result.layer_forward_plan, result.layer_backward_plan, model_plan)
        expected = _outcome(lambda: _eager_compose(planner, *plans))
        assert _outcome(lambda: planner._compose(*plans)) == expected
        collides = head in [f"L{k}" for k in range(num_layers)] and suffix != "fwd.not_in_the_tile"
        assert isinstance(expected, str) == collides

    @given(st.integers(min_value=1, max_value=3), st.data())
    @settings(max_examples=30, deadline=None)
    def test_repeated_tile_suffix_raises_at_composition(self, num_layers, data):
        planner, result = _small_plan(num_layers)
        forward = list(result.layer_forward_plan.entries.values())
        repeated = data.draw(st.sampled_from(forward))
        twin = PlanEntry("L7." + repeated.tensor_id.split(".", 1)[1], repeated.address, repeated.size)
        layer_forward_plan = MemoryPlan.of([*forward, twin], result.layer_forward_plan.solver)
        plans = (layer_forward_plan, result.layer_backward_plan, result.model_plan)
        expected = _outcome(lambda: _eager_compose(planner, *plans))
        assert _outcome(lambda: planner._compose(*plans)) == expected
        assert isinstance(expected, str)


def _frozen_record(name, fields, check=None):
    """A frozen dataclass with the original record's fields, validation and repr."""
    namespace = {} if check is None else {"__post_init__": check}
    return dataclasses.make_dataclass(name, fields, frozen=True, namespace=namespace)


def _check_plan_entry(self):
    if self.address < 0:
        raise ValueError("address must be non-negative")
    if self.size <= 0:
        raise ValueError("size must be positive")


def _check_request(self):
    if self.size <= 0:
        raise ValueError(f"request size must be positive, got {self.size}")
    if not self.tensor_id:
        raise ValueError("tensor_id must be non-empty")


def _check_dsa_tensor(self):
    if self.size <= 0:
        raise ValueError("size must be positive")
    if self.end <= self.start:
        raise ValueError("lifespan end must be after start")


_IDS = st.sampled_from(["", "a", "L0.fwd.x"])
_INTS = st.integers(min_value=-3, max_value=3)
_RECORDS = [
    (PlanEntry, _frozen_record("PlanEntry", ["tensor_id", "address", "size"], _check_plan_entry),
     [_IDS, _INTS, _INTS]),
    (MemoryRequest, _frozen_record("MemoryRequest", ["kind", "tensor_id", "size"], _check_request),
     [st.sampled_from(list(RequestKind)), _IDS, _INTS]),
    (DSATensor, _frozen_record("DSATensor", ["tensor_id", "size", "start", "end"], _check_dsa_tensor),
     [_IDS, _INTS, _INTS, _INTS]),
    (TimelinePoint, _frozen_record("TimelinePoint", ["step", "allocated_bytes", "reserved_bytes"]),
     [_INTS, _INTS, _INTS]),
]


class TestValidatedRecords:
    """The tuple records accept and reject what the frozen dataclasses did."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_records_validate_like_the_frozen_dataclasses(self, data):
        for record, frozen, strategies in _RECORDS:
            values = [data.draw(strategy) for strategy in strategies]
            names = [field.name for field in dataclasses.fields(frozen)]
            try:
                reference = frozen(*values)
            except ValueError as error:
                for build in (lambda: record(*values), lambda: record(**dict(zip(names, values)))):
                    with pytest.raises(ValueError) as raised:
                        build()
                    assert str(raised.value) == str(error)
                continue
            built = record(*values)
            assert built == record(**dict(zip(names, values)))
            assert repr(built) == repr(reference)
            assert [getattr(built, name) for name in names] == values
            assert record._fields == tuple(names)


class TestCachingAllocatorProperties:
    @given(malloc_free_traces())
    @settings(max_examples=40, deadline=None)
    def test_reserved_never_below_allocated_and_never_above_capacity(self, trace):
        capacity = 4 * sum(r.size for r in trace if r.kind is RequestKind.MALLOC) + 4096
        allocator = CachingAllocator(capacity_bytes=capacity)
        try:
            allocator.replay(trace)
        except OutOfMemoryError:
            pass
        for point in allocator.timeline.points:
            assert point.reserved_bytes >= point.allocated_bytes
            assert point.reserved_bytes <= capacity

    @given(malloc_free_traces())
    @settings(max_examples=40, deadline=None)
    def test_allocated_matches_live_bytes_at_every_step(self, trace):
        capacity = 4 * sum(r.size for r in trace if r.kind is RequestKind.MALLOC) + 4096
        allocator = CachingAllocator(
            capacity_bytes=capacity, round_to_bytes=1, small_segment_bytes=1,
        )
        allocator.replay(trace)
        live = 0
        for index, request in enumerate(trace):
            live += request.size if request.kind is RequestKind.MALLOC else -request.size
            assert allocator.timeline.points[index].allocated_bytes == live


    @staticmethod
    def _assert_totals_match_blocks(allocator):
        for segment in allocator.segments:
            assert segment.allocated_bytes == sum(
                block.size for block in segment.blocks if block.allocated
            )
        assert allocator.allocated_bytes == sum(
            block.size for segment in allocator.segments
            for block in segment.blocks if block.allocated
        )
        assert allocator.reserved_bytes == sum(segment.size for segment in allocator.segments)

    @given(
        malloc_free_traces(max_tensors=16),
        st.sampled_from([1, 512]),
        st.sampled_from([1, 1 << 15]),
        st.floats(min_value=1.0, max_value=2.0),
    )
    # "c" finds no room until the cached segment of "a" is released.
    @example(
        [
            MemoryRequest(RequestKind.MALLOC, "a", 1 << 16),
            MemoryRequest(RequestKind.MALLOC, "b", 1 << 16),
            MemoryRequest(RequestKind.FREE, "a", 1 << 16),
            MemoryRequest(RequestKind.MALLOC, "c", 2 << 16),
        ],
        1, 1, 1.0,
    )
    @settings(max_examples=80, deadline=None)
    def test_running_totals_equal_recomputed_sums(self, trace, round_to, large, capacity_scale):
        # Capacity near the live peak forces reorganisations and OOMs; a unit
        # large-request threshold gives every tensor its own releasable segment.
        allocator = CachingAllocator(
            capacity_bytes=int(capacity_scale * peak_live_bytes(trace)) + 1024,
            round_to_bytes=round_to,
            large_request_threshold=large,
            small_segment_bytes=1 << 16,
        )
        failed = set()
        for request in trace:
            if request.kind is RequestKind.MALLOC:
                try:
                    allocator.malloc(request.tensor_id, request.size)
                except OutOfMemoryError:
                    failed.add(request.tensor_id)
            elif request.tensor_id not in failed:
                allocator.free(request.tensor_id)
            self._assert_totals_match_blocks(allocator)


class _LinearBestFitAllocator(CachingAllocator):
    """The allocator with a frozen copy of the original best-fit search.

    It scans every block of every segment for the smallest one that fits,
    keeping the first segment, then the first block, on ties.
    """

    def _take_best_fit(self, rounded):
        best = None
        for segment_index, segment in enumerate(self.segments):
            block_index = None
            best_size = None
            for index, block in enumerate(segment.blocks):
                if block.allocated or block.size < rounded:
                    continue
                if best_size is None or block.size < best_size:
                    block_index = index
                    best_size = block.size
            if block_index is None:
                continue
            waste = segment.blocks[block_index].size - rounded
            if best is None or waste < best[0]:
                best = (waste, segment_index, block_index)
        if best is None:
            return None
        _, segment_index, block_index = best
        block = self.segments[segment_index].blocks[block_index]
        choice = (block.size, segment_index, block.offset)
        self._unindex(choice)  # the free path keeps reading the index
        return choice


class TestFreeBlockIndex:
    """The indexed best fit makes the linear scan's choices, request for request."""

    @given(
        malloc_free_traces(max_tensors=16),
        st.sampled_from([1, 512]),
        st.sampled_from([1, 1 << 15]),
        st.floats(min_value=1.0, max_value=2.0),
    )
    @example(
        [
            MemoryRequest(RequestKind.MALLOC, "a", 1 << 16),
            MemoryRequest(RequestKind.MALLOC, "b", 1 << 16),
            MemoryRequest(RequestKind.FREE, "a", 1 << 16),
            MemoryRequest(RequestKind.MALLOC, "c", 2 << 16),
        ],
        1, 1, 1.0,
    )
    @settings(max_examples=80, deadline=None)
    def test_indexed_best_fit_equals_linear_scan(self, trace, round_to, large, capacity_scale):
        settings_ = dict(
            capacity_bytes=int(capacity_scale * peak_live_bytes(trace)) + 1024,
            round_to_bytes=round_to,
            large_request_threshold=large,
            small_segment_bytes=1 << 16,
        )
        allocator = CachingAllocator(**settings_)
        reference = _LinearBestFitAllocator(**settings_)
        failed = set()
        for request in trace:
            outcomes = []
            for subject in (allocator, reference):
                try:
                    if request.kind is RequestKind.MALLOC:
                        subject.malloc(request.tensor_id, request.size)
                    elif request.tensor_id not in failed:
                        subject.free(request.tensor_id)
                    outcomes.append(None)
                except OutOfMemoryError as error:
                    outcomes.append((error.requested, error.reserved, error.allocated))
            assert outcomes[0] == outcomes[1]
            if outcomes[0] is not None:
                failed.add(request.tensor_id)
            # Same block for every tensor, same layout, same counters.
            assert allocator._tensor_blocks == reference._tensor_blocks
            assert allocator.segments == reference.segments
            assert allocator.stats == reference.stats
            assert allocator.timeline.points == reference.timeline.points
            assert allocator._free_blocks == sorted(
                (block.size, position, block.offset)
                for position, segment in enumerate(allocator.segments)
                for block in segment.blocks if not block.allocated
            )

    @given(malloc_free_traces(max_tensors=16), st.sampled_from([1, 512]), st.sampled_from([1, 1 << 15]))
    @example(
        [
            MemoryRequest(RequestKind.MALLOC, "a", 100),
            MemoryRequest(RequestKind.MALLOC, "b", 100),
            MemoryRequest(RequestKind.MALLOC, "c", 100),
            MemoryRequest(RequestKind.FREE, "a", 100),
            MemoryRequest(RequestKind.FREE, "c", 100),
            MemoryRequest(RequestKind.FREE, "b", 100),
        ],
        1, 1 << 15,
    )
    @settings(max_examples=80, deadline=None)
    def test_free_by_offset_merges_as_the_scan_did(self, trace, round_to, large):
        # Room for one segment per malloc, so no request fails or reorganises.
        capacity = sum(max(r.size + 512, 1 << 16) for r in trace if r.kind is RequestKind.MALLOC)
        allocator = CachingAllocator(
            capacity_bytes=capacity, round_to_bytes=round_to,
            large_request_threshold=large, small_segment_bytes=1 << 16,
        )
        for request in trace:
            tensor_id = request.tensor_id
            if request.kind is RequestKind.MALLOC:
                allocator.malloc(tensor_id, request.size)
                continue
            position, offset, size = allocator._tensor_blocks[tensor_id]
            # An unknown id names no block, for the scan too, and neither does a wrong offset.
            assert _scan_free_tensor(copy.deepcopy(allocator.segments[position]), "missing") is None
            with pytest.raises(KeyError, match="is not allocated"):
                allocator.free("missing")
            misplaced = copy.deepcopy(allocator)
            misplaced._tensor_blocks[tensor_id] = (position, offset + 1, size)
            with pytest.raises(KeyError, match="not found in its segment"):
                misplaced.free(tensor_id)
            scanned = copy.deepcopy(allocator.segments[position])
            assert _scan_free_tensor(scanned, tensor_id) is not None
            allocator.free(tensor_id)
            assert allocator.segments[position] == scanned
            # Already free: unknown to the allocator, and its block backs no tensor.
            with pytest.raises(KeyError, match="is not allocated"):
                allocator.free(tensor_id)
            allocator._tensor_blocks[tensor_id] = (position, offset, size)
            with pytest.raises(KeyError, match="not found in its segment"):
                allocator.free(tensor_id)


def _scan_free_tensor(segment, tensor_id):
    """Frozen copy of the original ``Segment.free_tensor``: the block is found by a scan."""
    blocks = segment.blocks
    low = next((i for i, b in enumerate(blocks) if b.allocated and b.tensor_id == tensor_id), None)
    if low is None:
        return None
    block = blocks[low]
    block.allocated = False
    block.tensor_id = None
    segment.allocated_bytes -= block.size
    high = low + 1
    while low > 0 and not blocks[low - 1].allocated:
        low -= 1
    while high < len(blocks) and not blocks[high].allocated:
        high += 1
    run = [(b.size, b.offset) for b in blocks[low:high]]
    blocks[low].size = sum(size for size, _ in run)
    del blocks[low + 1:high]
    return run


def _apply_request(subject, request, failed):
    """Run one request; None, or the OutOfMemoryError's message and fields."""
    try:
        if request.kind is RequestKind.MALLOC:
            subject.malloc(request.tensor_id, request.size)
        elif request.tensor_id not in failed:
            subject.free(request.tensor_id)
    except OutOfMemoryError as error:
        return str(error), error.requested, error.reserved, error.allocated
    return None


def _assert_same_allocator_state(flat, layered):
    assert flat.segments == layered.segments
    assert flat._tensor_blocks == layered._tensor_blocks
    assert flat._free_blocks == layered._free_blocks
    assert flat.stats == layered.stats
    assert flat.timeline.points == layered.timeline.points
    assert (flat.allocated_bytes, flat.reserved_bytes, flat._step, flat._next_segment_start) == (
        layered.allocated_bytes, layered.reserved_bytes, layered._step, layered._next_segment_start,
    )


#: ``memory_plan``'s iteration stream: 4-layer 7B traces at 8K tokens
#: jittered by up to 8 %, 30 per round, replayed on one 7 GiB device.
_MEMORY_PLAN_LENGTHS = [
    max(256, int(8192 * (1.0 + jitter)) // 256 * 256) for jitter in (-0.08, -0.04, 0.0, 0.04, 0.08)
]


#: The cached 32 KiB segment of "a" is released for the larger "b".
_REORGANISING_TRACE = [
    MemoryRequest(RequestKind.MALLOC, "a", 1 << 15),
    MemoryRequest(RequestKind.FREE, "a", 1 << 15),
    MemoryRequest(RequestKind.MALLOC, "b", 40000),
]
#: "a" pins its small segment, so "c" fails; "d" then fits beside "a".
_FAILING_TRACE = [
    MemoryRequest(RequestKind.MALLOC, "a", 100),
    MemoryRequest(RequestKind.MALLOC, "c", 1 << 16),
    MemoryRequest(RequestKind.MALLOC, "d", 100),
    MemoryRequest(RequestKind.FREE, "c", 1 << 16),
    MemoryRequest(RequestKind.FREE, "d", 100),
    MemoryRequest(RequestKind.FREE, "a", 100),
]


class TestFlatAllocator:
    """The flat ``malloc``/``free`` bodies leave, request by request, exactly
    the state the layered path (``tests/frozen_allocator.py``) left."""

    @given(
        malloc_free_traces(max_tensors=16),
        st.sampled_from([1, 512]),
        st.sampled_from([1, 1 << 15]),
        st.floats(min_value=1.0, max_value=2.0),
    )
    @example(_REORGANISING_TRACE, 512, 1 << 15, 1.0)
    @example(_FAILING_TRACE, 1, 1 << 15, 1.0)
    @settings(max_examples=120, deadline=None)
    def test_flat_path_equals_layered_copy(self, trace, round_to, large, capacity_scale):
        settings_ = dict(
            capacity_bytes=int(capacity_scale * peak_live_bytes(trace)) + 1024,
            round_to_bytes=round_to,
            large_request_threshold=large,
            small_segment_bytes=1 << 16,
        )
        flat, layered = CachingAllocator(**settings_), LayeredAllocator(**settings_)
        failed = set()
        for request in trace:
            outcome = _apply_request(flat, request, failed)
            assert outcome == _apply_request(layered, request, failed)
            if outcome is not None:
                failed.add(request.tensor_id)
            _assert_same_allocator_state(flat, layered)

    def test_examples_reorganise_and_fail(self):
        # The explicit examples above reach the slow paths.
        allocator = CachingAllocator(
            capacity_bytes=peak_live_bytes(_REORGANISING_TRACE) + 1024, round_to_bytes=512,
            large_request_threshold=1 << 15, small_segment_bytes=1 << 16,
        )
        allocator.replay(_REORGANISING_TRACE)
        assert allocator.stats.num_reorganizations == 1
        allocator = CachingAllocator(
            capacity_bytes=peak_live_bytes(_FAILING_TRACE) + 1024, round_to_bytes=1,
            large_request_threshold=1 << 15, small_segment_bytes=1 << 16,
        )
        with pytest.raises(OutOfMemoryError):
            allocator.replay(_FAILING_TRACE)
        assert allocator.stats.num_failed_allocations == 1

    @pytest.mark.parametrize("call, args", [
        ("malloc", ("b", 0)),
        ("malloc", ("b", -512)),
        ("malloc", ("a", 512)),
        ("free", ("ghost",)),
    ])
    def test_rejections_match_layered_copy(self, call, args):
        errors = []
        subjects = CachingAllocator(capacity_bytes=4 << 20), LayeredAllocator(capacity_bytes=4 << 20)
        for subject in subjects:
            subject.malloc("a", 1000)
            with pytest.raises((ValueError, KeyError)) as excinfo:
                getattr(subject, call)(*args)
            errors.append((excinfo.type, str(excinfo.value)))
        assert errors[0] == errors[1]
        _assert_same_allocator_state(*subjects)

    @pytest.mark.parametrize("size", [1.5, 1000.0, True])
    def test_fractional_and_boolean_sizes_rejected(self, size):
        # The layered path placed them, leaving float offsets and totals.
        allocator = CachingAllocator(capacity_bytes=1 << 22)
        with pytest.raises(ValueError, match=f"size must be an int, got {size!r}"):
            allocator.malloc("b", size)
        assert allocator.stats.num_mallocs == 0 and not allocator.segments

    @pytest.mark.parametrize("seed", range(11))
    def test_memory_plan_stream_equals_layered_copy(self, seed):
        model = get_model_config("7B")
        stream = _MEMORY_PLAN_LENGTHS * 6
        random.Random(seed).shuffle(stream)

        def fresh_pair():  # 7 GiB devices; an OOM restarts both on fresh ones
            return CachingAllocator(capacity_bytes=7 << 30), LayeredAllocator(capacity_bytes=7 << 30)

        flat, layered = fresh_pair()
        for length in stream:
            trace = full_model_trace(model, 1, length, num_layers=4, include_skeletal=True)
            outcomes = []
            for subject in (flat, layered):
                try:
                    subject.replay(trace)
                    outcomes.append(None)
                except OutOfMemoryError as error:
                    outcomes.append(str(error))
            assert outcomes[0] == outcomes[1]
            _assert_same_allocator_state(flat, layered)
            if outcomes[0] is not None:
                flat, layered = fresh_pair()


class TestAlphaProperties:
    @given(
        st.floats(min_value=1e6, max_value=1e10),
        st.floats(min_value=1e6, max_value=1e10),
        st.floats(min_value=0.0, max_value=1e11),
        st.floats(min_value=1e8, max_value=1e11),
        st.floats(min_value=1e-3, max_value=100.0),
        st.integers(min_value=1, max_value=128),
        st.floats(min_value=0.0, max_value=1e13),
    )
    @settings(max_examples=100, deadline=None)
    def test_alpha_always_in_unit_interval_and_constraints_hold(
        self, input_bytes, attn_bytes, other_bytes, bandwidth, layer_time, layers, cpu,
    ):
        problem = AlphaProblem(
            input_bytes=input_bytes,
            attn_output_bytes=attn_bytes,
            other_bytes=other_bytes,
            pcie_bandwidth_bytes_per_s=bandwidth,
            layer_forward_time_s=layer_time,
            num_layers=layers,
            cpu_memory_bytes=cpu,
        )
        solution = solve_alpha(problem)
        assert 0.0 <= solution.alpha <= 1.0
        if solution.feasible and problem.swapping_layers > 0:
            assert solution.cpu_bytes_used <= cpu * (1 + 1e-9)
        # The solution is maximal: nudging alpha upward violates a constraint
        # or exceeds 1.
        bumped = min(solution.alpha + 1e-3, 1.0)
        if solution.feasible and bumped > solution.alpha:
            over_bandwidth = problem.offload_time(bumped) > layer_time + 1e-12
            over_cpu = problem.swapping_layers * problem.offloaded_bytes(bumped) > cpu + 1e-6
            assert over_bandwidth or over_cpu or solution.alpha == 1.0 or (
                # alpha was clipped at a bound below both constraints only when
                # the bounds themselves were below zero (mandatory part blocks).
                solution.bandwidth_bound < 0 or solution.cpu_memory_bound < 0
            )


class TestExecutorProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=2.0),   # forward
                st.floats(min_value=0.01, max_value=4.0),   # backward
                st.floats(min_value=0.0, max_value=5e9),    # offload bytes
                st.floats(min_value=0.0, max_value=1.0),    # recompute
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_iteration_time_at_least_compute_and_stalls_consistent(self, layer_specs):
        tasks = [
            LayerTask(
                forward_compute_s=fwd, backward_compute_s=bwd,
                offload_bytes=off, prefetch_bytes=off, recompute_s=rec,
            )
            for fwd, bwd, off, rec in layer_specs
        ]
        timeline = simulate_iteration(tasks, pcie_bandwidth_bytes_per_s=5e9)
        compute = sum(t.forward_compute_s + t.backward_compute_s + t.recompute_s for t in tasks)
        assert timeline.total_s >= compute - 1e-9
        assert timeline.compute_busy_s == pytest.approx(compute)
        assert timeline.forward_stall_s >= 0 and timeline.backward_stall_s >= 0
        assert timeline.total_s <= compute + timeline.total_stall_s + 1e-6


class TestNumericalProperties:
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=2, max_value=24))
    @settings(max_examples=40, deadline=None)
    def test_layer_norm_backward_consistent_with_forward(self, rows, hidden):
        rng = np.random.default_rng(rows * 100 + hidden)
        x = rng.normal(size=(1, rows, hidden))
        weight = rng.normal(size=hidden)
        bias = rng.normal(size=hidden)
        out, mean, inv_std = layer_norm(x, weight, bias)
        grad_out = rng.normal(size=out.shape)
        grad_in, grad_w, grad_b = layer_norm_backward(grad_out, x, weight, mean, inv_std)
        assert grad_in.shape == x.shape
        assert np.isfinite(grad_in).all() and np.isfinite(grad_w).all()
        # Directional derivative check.
        direction = rng.normal(size=x.shape)
        epsilon = 1e-6
        plus, _, _ = layer_norm(x + epsilon * direction, weight, bias)
        minus, _, _ = layer_norm(x - epsilon * direction, weight, bias)
        numeric = float(((plus - minus) / (2 * epsilon) * grad_out).sum())
        analytic = float((grad_in * direction).sum())
        assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-6)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=2, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_softmax_is_a_distribution(self, rows, cols):
        rng = np.random.default_rng(rows * 31 + cols)
        probs = softmax(rng.normal(scale=10.0, size=(rows, cols)))
        assert (probs >= 0).all()
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones(rows), atol=1e-9)
