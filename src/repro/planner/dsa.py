"""Offline Dynamic Storage Allocation (DSA) problem construction.

The planner receives a malloc/free trace and must assign each tensor a fixed
address such that tensors with overlapping lifespans never overlap in memory,
minimising the peak address used (Section 4.2 of the paper).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, List, NamedTuple, Sequence, Tuple

from repro.config import PLAN_MEMO_SIZE
from repro.memory.request import MemoryRequest, tensor_lifespans
from repro.planner.plan import MemoryPlan


class DSATensor(NamedTuple("DSATensor", [("tensor_id", str), ("size", int), ("start", int), ("end", int)])):
    """One tensor of the DSA problem: a size and a [start, end) lifespan."""

    __slots__ = ()

    def __new__(cls, tensor_id: str, size: int, start: int, end: int) -> "DSATensor":
        if size <= 0:
            raise ValueError("size must be positive")
        if end <= start:
            raise ValueError("lifespan end must be after start")
        return tuple.__new__(cls, (tensor_id, size, start, end))

    def conflicts_with(self, other: "DSATensor") -> bool:
        """Whether the two tensors are ever live at the same time."""
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class DSAProblem:
    """An offline DSA instance: tensors whose overlapping lifespans conflict.

    Solvers test overlap on lifespans; :attr:`conflicts` builds the O(n²) edges
    and :attr:`heuristic_plan` the heuristic plan on first read.
    """

    tensors: Tuple[DSATensor, ...]

    @cached_property
    def conflicts(self) -> FrozenSet[Tuple[str, str]]:
        """Conflicting id pairs in input order (i < j), as a pairwise scan emits
        them, from a sweep by start over the open lifespans: O(n log n + |E|)."""
        tensors = self.tensors
        conflicts = set()
        open_indices: List[int] = []
        for j in sorted(range(len(tensors)), key=lambda index: tensors[index].start):
            start = tensors[j].start
            open_indices = [i for i in open_indices if tensors[i].end > start]
            for i in open_indices:
                a, b = (i, j) if i < j else (j, i)
                conflicts.add((tensors[a].tensor_id, tensors[b].tensor_id))
            open_indices.append(j)
        return frozenset(conflicts)

    @cached_property
    def heuristic_plan(self) -> MemoryPlan:
        """The smaller-peak plan of best fit and first-fit decreasing (read-only, shared)."""
        from repro.planner.heuristics import solve_best_fit, solve_first_fit_decreasing

        return min((solve_best_fit(self), solve_first_fit_decreasing(self)), key=lambda plan: plan.peak_bytes)

    @cached_property
    def _by_id(self) -> Dict[str, DSATensor]:
        return {tensor.tensor_id: tensor for tensor in self.tensors}

    @property
    def total_bytes(self) -> int:
        return sum(t.size for t in self.tensors)

    @property
    def num_tensors(self) -> int:
        return len(self.tensors)

    def conflicting(self, a: str, b: str) -> bool:
        """Whether tensors ``a`` and ``b`` are distinct and have overlapping lifespans."""
        by_id = self._by_id
        return a != b and a in by_id and b in by_id and by_id[a].conflicts_with(by_id[b])

    def lower_bound_bytes(self) -> int:
        """Lower bound on the optimal peak: max total size live at any instant."""
        events: List[Tuple[int, int]] = []
        for tensor in self.tensors:
            events.append((tensor.start, tensor.size))
            events.append((tensor.end, -tensor.size))
        # Lifespans are half-open [start, end): a tensor ending at step t does
        # not overlap one starting at t, so releases sort before allocations.
        events.sort(key=lambda item: (item[0], item[1]))
        live = 0
        peak = 0
        for _, delta in events:
            live += delta
            peak = max(peak, live)
        return peak

    def validate_plan(self, plan: MemoryPlan) -> None:
        """Check that a plan covers every tensor and respects all conflicts.

        A sweep over time (releases first at a step) keeps the live planned
        spans sorted by address.  They are disjoint until the first overlap,
        so a new span can only overlap its address neighbour on either side.

        Raises:
            ValueError: on a missing tensor, a size mismatch, or two conflicting
                tensors whose planned regions overlap (named in input order).
        """
        entries = plan.entries
        events: List[Tuple[int, bool, int, int, int]] = []
        for index, (tensor_id, size, start, stop) in enumerate(self.tensors):
            entry = entries.get(tensor_id)
            if entry is None:
                raise ValueError(f"plan is missing tensor {tensor_id!r}")
            if entry.size != size:
                raise ValueError(
                    f"plan size mismatch for {tensor_id!r}: "
                    f"{entry.size} != {size}"
                )
            address = entry.address
            events.append((start, True, address, address + size, index))
            events.append((stop, False, address, address + size, index))
        events.sort()
        live: List[Tuple[int, int, int]] = []  # (address, end address, index)
        for _, allocate, address, end, index in events:
            span = (address, end, index)
            position = bisect_left(live, span)
            if not allocate:
                del live[position]
                continue
            if position and live[position - 1][1] > address:
                other = live[position - 1]
            elif position < len(live) and live[position][0] < end:
                other = live[position]
            else:
                live.insert(position, span)
                continue
            (start_a, end_a, a), (start_b, end_b, b) = sorted((span, other), key=lambda s: s[2])
            raise ValueError(
                f"conflicting tensors {self.tensors[a].tensor_id!r} and "
                f"{self.tensors[b].tensor_id!r} overlap in the plan "
                f"([{start_a}, {end_a}) vs [{start_b}, {end_b}))"
            )


def problem_from_tensors(tensors: Sequence[DSATensor]) -> DSAProblem:
    """Build a DSA problem from explicit tensors (ids must be unique)."""
    ids = [t.tensor_id for t in tensors]
    if len(set(ids)) != len(ids):
        raise ValueError("tensor ids must be unique")
    return DSAProblem(tensors=tuple(tensors))


def problem_from_trace(trace: Sequence[MemoryRequest]) -> DSAProblem:
    """Build a DSA problem from a malloc/free trace (profiler output), memoized
    per process on its requests: a repeated trace shares one problem and plan."""
    return _problem_from_trace(tuple(trace))


@lru_cache(maxsize=PLAN_MEMO_SIZE)
def _problem_from_trace(trace: Tuple[MemoryRequest, ...]) -> DSAProblem:
    spans = tensor_lifespans(trace)
    tensors = [
        DSATensor(tensor_id=tensor_id, size=size, start=start, end=end)
        for tensor_id, (start, end, size) in sorted(spans.items(), key=lambda kv: kv[1][0])
    ]
    return problem_from_tensors(tensors)
