"""Allocated/reserved memory timelines (the data behind Figure 1(a))."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple


class TimelinePoint(NamedTuple):
    """One sample of the allocator state."""

    step: int
    allocated_bytes: int
    reserved_bytes: int

    @property
    def fragmentation_bytes(self) -> int:
        return self.reserved_bytes - self.allocated_bytes


@dataclass
class MemoryTimeline:
    """Time series of allocated vs reserved bytes while replaying a trace."""

    points: List[TimelinePoint] = field(default_factory=list)

    def record(self, step: int, allocated_bytes: int, reserved_bytes: int) -> None:
        if allocated_bytes < 0 or reserved_bytes < 0:
            raise ValueError("memory sizes must be non-negative")
        if reserved_bytes < allocated_bytes:
            raise ValueError("reserved memory cannot be smaller than allocated memory")
        self.points.append(TimelinePoint(step, allocated_bytes, reserved_bytes))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def peak_fragmentation_bytes(self) -> int:
        """Largest reserved-minus-allocated gap observed (Figure 1(a) peaks)."""
        return max((p.fragmentation_bytes for p in self.points), default=0)
