"""Tests for block/segment structures, timelines and fragmentation analysis."""

import pytest

from repro.config import GiB, MiB
from repro.memory.block import Block, Segment
from repro.memory.caching_allocator import CachingAllocator
from repro.memory.fragmentation import analyze_trace
from repro.memory.request import MemoryRequest, RequestKind
from repro.memory.snapshot import MemoryTimeline
from repro.model.trace import full_model_trace


def one_segment_allocator(size):
    """An allocator whose requests all share one ``size``-byte segment."""
    return CachingAllocator(capacity_bytes=size, round_to_bytes=1, small_segment_bytes=size)


class TestSegment:
    def test_initial_single_free_block(self):
        segment = Segment(start=0, size=1024)
        assert len(segment.blocks) == 1
        assert segment.is_fully_free

    def test_allocation_splits_block(self):
        allocator = one_segment_allocator(1024)
        allocator.malloc("a", 256)
        (segment,) = allocator.segments
        assert [b.size for b in segment.blocks] == [256, 768]
        assert segment.allocated_bytes == 256

    def test_exact_fit_does_not_split(self):
        allocator = one_segment_allocator(512)
        allocator.malloc("a", 512)
        (segment,) = allocator.segments
        assert len(segment.blocks) == 1

    def test_free_coalesces_both_sides(self):
        allocator = one_segment_allocator(900)
        allocator.malloc("a", 300)
        allocator.malloc("b", 300)
        allocator.malloc("c", 300)
        allocator.free("a")
        allocator.free("c")
        allocator.free("b")
        (segment,) = allocator.segments
        assert len(segment.blocks) == 1
        assert segment.is_fully_free

    def test_best_fit_prefers_smallest_gap(self):
        allocator = CachingAllocator(
            capacity_bytes=1000, round_to_bytes=1, small_segment_bytes=1000,
        )
        allocator.malloc("a", 400)   # [a:400][free:600]
        allocator.malloc("b", 500)   # [a][b:500][free:100]
        allocator.free("a")          # [free:400][b][free:100]
        allocator.malloc("c", 80)
        (segment,) = allocator.segments
        # "c" was carved from the 100-byte block; the 400-byte one is intact.
        assert [(block.offset, block.size, block.tensor_id) for block in segment.blocks] == [
            (0, 400, None), (400, 500, "b"), (900, 80, "c"), (980, 20, None),
        ]

    def test_cannot_allocate_in_allocated_block(self):
        # Only a free-block index out of step with the blocks can name an
        # allocated or too-small block; malloc refuses to carve either.
        allocator = one_segment_allocator(100)
        allocator.malloc("a", 100)
        allocator._free_blocks.append((100, 0, 0))
        with pytest.raises(ValueError, match="already-allocated block"):
            allocator.malloc("b", 10)
        allocator.free("a")
        allocator.malloc("a", 60)
        allocator._free_blocks[:] = [(100, 0, 60)]
        with pytest.raises(ValueError, match="block too small"):
            allocator.malloc("b", 80)

    def test_block_end(self):
        assert Block(offset=10, size=5).end == 15


class TestMemoryTimeline:
    def test_records_and_peaks(self):
        timeline = MemoryTimeline()
        timeline.record(0, 10, 20)
        timeline.record(1, 15, 20)
        timeline.record(2, 5, 30)
        assert timeline.peak_fragmentation_bytes == 25

    def test_rejects_reserved_below_allocated(self):
        timeline = MemoryTimeline()
        with pytest.raises(ValueError):
            timeline.record(0, 10, 5)


class TestFragmentationAnalysis:
    def test_analyze_small_trace(self, small_layer_trace):
        report = analyze_trace(small_layer_trace, capacity_bytes=4 * GiB)
        assert not report.oom
        assert report.peak_reserved_bytes >= report.peak_allocated_bytes >= report.peak_live_bytes

    def test_analyze_detects_oom(self, gpt7b):
        trace = full_model_trace(gpt7b, 1, 8192, num_layers=8)
        report = analyze_trace(trace, capacity_bytes=2 * GiB)
        assert report.oom
        assert report.oom_requested_bytes is not None

    def test_fragmentation_ratio_non_negative(self):
        trace = [
            MemoryRequest(RequestKind.MALLOC, "a", 2 * MiB),
            MemoryRequest(RequestKind.FREE, "a", 2 * MiB),
        ]
        report = analyze_trace(trace, capacity_bytes=64 * MiB)
        assert report.fragmentation_ratio >= 0.0
