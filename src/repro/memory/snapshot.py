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
    def peak_allocated_bytes(self) -> int:
        return max((p.allocated_bytes for p in self.points), default=0)

    @property
    def peak_reserved_bytes(self) -> int:
        return max((p.reserved_bytes for p in self.points), default=0)

    @property
    def peak_fragmentation_bytes(self) -> int:
        """Largest reserved-minus-allocated gap observed (Figure 1(a) peaks)."""
        return max((p.fragmentation_bytes for p in self.points), default=0)

    def fragmentation_at_peak_reserved(self) -> int:
        """Fragmentation at the point of maximum reserved memory."""
        if not self.points:
            return 0
        peak_point = max(self.points, key=lambda p: p.reserved_bytes)
        return peak_point.fragmentation_bytes

    def series(self) -> dict:
        """Return the timeline as plain lists, ready for plotting or printing."""
        return {
            "step": [p.step for p in self.points],
            "allocated_gib": [p.allocated_bytes / (1024 ** 3) for p in self.points],
            "reserved_gib": [p.reserved_bytes / (1024 ** 3) for p in self.points],
        }
