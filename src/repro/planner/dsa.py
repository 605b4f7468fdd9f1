"""Offline Dynamic Storage Allocation (DSA) problem construction.

The planner receives a malloc/free trace and must assign each tensor a fixed
address such that tensors with overlapping lifespans never overlap in memory,
minimising the peak address used (Section 4.2 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.memory.request import MemoryRequest, tensor_lifespans
from repro.planner.plan import MemoryPlan


@dataclass(frozen=True)
class DSATensor:
    """One tensor of the DSA problem: a size and a [start, end) lifespan."""

    tensor_id: str
    size: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("size must be positive")
        if self.end <= self.start:
            raise ValueError("lifespan end must be after start")

    def conflicts_with(self, other: "DSATensor") -> bool:
        """Whether the two tensors are ever live at the same time."""
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class DSAProblem:
    """An offline DSA instance: tensors plus the conflict (interference) edges."""

    tensors: Tuple[DSATensor, ...]
    conflicts: FrozenSet[Tuple[str, str]]
    #: Derived adjacency index, built once: tensor id -> the ids it conflicts with.
    neighbours: Dict[str, Set[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        neighbours: Dict[str, Set[str]] = {t.tensor_id: set() for t in self.tensors}
        for a, b in self.conflicts:
            neighbours[a].add(b)
            neighbours[b].add(a)
        object.__setattr__(self, "neighbours", neighbours)

    @property
    def total_bytes(self) -> int:
        return sum(t.size for t in self.tensors)

    @property
    def num_tensors(self) -> int:
        return len(self.tensors)

    def conflicting(self, a: str, b: str) -> bool:
        """Whether tensors ``a`` and ``b`` have overlapping lifespans."""
        return b in self.neighbours.get(a, ())

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

        Raises:
            ValueError: on a missing tensor, a size mismatch, or two
                conflicting tensors whose planned regions overlap.
        """
        entries = plan.entries
        spans: Dict[str, Tuple[int, int]] = {}
        for tensor in self.tensors:
            entry = entries.get(tensor.tensor_id)
            if entry is None:
                raise ValueError(f"plan is missing tensor {tensor.tensor_id!r}")
            if entry.size != tensor.size:
                raise ValueError(
                    f"plan size mismatch for {tensor.tensor_id!r}: "
                    f"{entry.size} != {tensor.size}"
                )
            spans[tensor.tensor_id] = (entry.address, entry.address + entry.size)
        for a, b in self.conflicts:
            start_a, end_a = spans[a]
            start_b, end_b = spans[b]
            if start_a < end_b and start_b < end_a:
                raise ValueError(
                    f"conflicting tensors {a!r} and {b!r} overlap in the plan "
                    f"([{start_a}, {end_a}) vs [{start_b}, {end_b}))"
                )


def problem_from_tensors(tensors: Sequence[DSATensor]) -> DSAProblem:
    """Build a DSA problem from explicit tensors, computing the conflict set."""
    ids = [t.tensor_id for t in tensors]
    if len(set(ids)) != len(ids):
        raise ValueError("tensor ids must be unique")
    # Sweep by start time, keeping the lifespans still open: each open one
    # conflicts with the tensor being swept, so the scan costs O(n log n + |E|).
    # Pairs keep input order (i < j), as a pairwise scan would emit them.
    conflicts = set()
    open_indices: List[int] = []
    for j in sorted(range(len(tensors)), key=lambda index: tensors[index].start):
        start = tensors[j].start
        open_indices = [i for i in open_indices if tensors[i].end > start]
        for i in open_indices:
            a, b = (i, j) if i < j else (j, i)
            conflicts.add((ids[a], ids[b]))
        open_indices.append(j)
    return DSAProblem(tensors=tuple(tensors), conflicts=frozenset(conflicts))


def problem_from_trace(trace: Sequence[MemoryRequest]) -> DSAProblem:
    """Build a DSA problem from a malloc/free trace (profiler output)."""
    spans = tensor_lifespans(trace)
    tensors = [
        DSATensor(tensor_id=tensor_id, size=size, start=start, end=end)
        for tensor_id, (start, end, size) in sorted(spans.items(), key=lambda kv: kv[1][0])
    ]
    return problem_from_tensors(tensors)
