"""Tests for the PyTorch-style caching allocator simulator."""

import pytest

from repro.config import MiB
from repro.memory.caching_allocator import CachingAllocator, OutOfMemoryError
from repro.memory.request import MemoryRequest, RequestKind


def make_allocator(capacity=64 * MiB, **kwargs):
    return CachingAllocator(capacity_bytes=capacity, **kwargs)


class TestBasicAllocation:
    def test_malloc_reserves_and_allocates(self):
        allocator = make_allocator()
        allocator.malloc("a", 4 * MiB)
        assert allocator.allocated_bytes == 4 * MiB
        assert allocator.reserved_bytes >= 4 * MiB

    def test_free_keeps_memory_reserved(self):
        """The defining behaviour of a caching allocator: freed blocks are cached."""
        allocator = make_allocator()
        allocator.malloc("a", 4 * MiB)
        allocator.free("a")
        assert allocator.allocated_bytes == 0
        assert allocator.reserved_bytes >= 4 * MiB

    def test_cached_block_is_reused(self):
        allocator = make_allocator()
        allocator.malloc("a", 4 * MiB)
        allocator.free("a")
        reserved_before = allocator.reserved_bytes
        allocator.malloc("b", 4 * MiB)
        assert allocator.reserved_bytes == reserved_before
        assert allocator.stats.num_segment_allocations == 1

    def test_double_malloc_rejected(self):
        allocator = make_allocator()
        allocator.malloc("a", MiB)
        with pytest.raises(ValueError):
            allocator.malloc("a", MiB)

    @pytest.mark.parametrize("size", [0, -512])
    def test_non_positive_size_rejected_before_any_state_changes(self, size):
        # A zero size used to leave a zero-size allocated block, and a negative
        # one corrupted the block list until a later malloc failed.
        allocator = make_allocator(round_to_bytes=512)
        allocator.malloc("a", MiB)
        with pytest.raises(ValueError, match="size must be positive"):
            allocator.malloc("b", size)
        assert allocator.stats.num_mallocs == 1
        assert len(allocator.timeline) == 1
        assert [[block.size for block in segment.blocks] for segment in allocator.segments] == [[MiB]]
        allocator.malloc("b", MiB)
        allocator.malloc("c", 4 * MiB)
        assert allocator.allocated_bytes == 6 * MiB

    def test_free_unknown_tensor_rejected(self):
        with pytest.raises(KeyError):
            make_allocator().free("ghost")

    def test_sizes_rounded_to_granularity(self):
        allocator = make_allocator()
        allocator.malloc("a", 100)
        assert allocator.allocated_bytes % allocator.round_to_bytes == 0


class TestFragmentation:
    def test_splitting_creates_fragmentation(self):
        """Allocate a large block, free it, then allocate a smaller one: the
        remainder is reserved but unallocated."""
        allocator = make_allocator()
        allocator.malloc("big", 8 * MiB)
        allocator.free("big")
        allocator.malloc("small", 5 * MiB)
        assert allocator.fragmentation_bytes >= 3 * MiB

    def test_coalescing_merges_free_neighbours(self):
        # Small requests (below the large-request threshold) share one cached
        # segment, so coalescing of adjacent freed blocks is observable.
        allocator = make_allocator()
        quarter = 256 * 1024
        allocator.malloc("a", quarter)
        allocator.malloc("b", quarter)
        allocator.malloc("c", quarter)
        allocator.free("a")
        allocator.free("b")
        # After coalescing, a half-MiB request fits in the merged gap without a
        # new segment -- only possible if the two free blocks merged.
        segments_before = allocator.stats.num_segment_allocations
        allocator.malloc("d", 2 * quarter)
        assert allocator.stats.num_segment_allocations == segments_before


class TestReorganizationAndOom:
    def test_reorganization_releases_cached_segments(self):
        allocator = make_allocator(capacity=10 * MiB)
        allocator.malloc("a", 4 * MiB)
        allocator.malloc("b", 4 * MiB)
        allocator.free("a")
        allocator.free("b")
        # 8 MiB cached in two segments; a 6 MiB request fits in neither, and a
        # new segment does not fit the device -> reorganisation must kick in.
        allocator.malloc("c", 6 * MiB)
        assert allocator.stats.num_reorganizations == 1

    def test_oom_when_capacity_exhausted(self):
        allocator = make_allocator(capacity=8 * MiB)
        allocator.malloc("a", 6 * MiB)
        with pytest.raises(OutOfMemoryError) as excinfo:
            allocator.malloc("b", 6 * MiB)
        assert excinfo.value.requested == 6 * MiB
        assert allocator.stats.num_failed_allocations == 1

    def test_fragmentation_can_cause_oom_despite_free_space(self):
        """Figure 1(a): enough total free memory, but no contiguous block."""
        allocator = make_allocator(capacity=10 * MiB, small_segment_bytes=MiB)
        allocator.malloc("a", 5 * MiB)
        allocator.malloc("b", 5 * MiB)
        allocator.free("a")
        # 5 MiB free (cached) but tensor b pins its segment; requesting 6 MiB
        # cannot be satisfied even though 5 MiB is idle.
        with pytest.raises(OutOfMemoryError):
            allocator.malloc("c", 6 * MiB)


class TestReplayAndTimeline:
    def test_replay_records_timeline(self, small_layer_trace):
        allocator = make_allocator(capacity=1024 * MiB)
        stats = allocator.replay(small_layer_trace)
        assert stats.num_mallocs > 0
        assert len(allocator.timeline) == stats.num_mallocs + stats.num_frees
        assert stats.peak_reserved_bytes >= stats.peak_allocated_bytes

    def test_replay_reports_peaks(self):
        allocator = make_allocator()
        trace = [
            MemoryRequest(RequestKind.MALLOC, "a", 2 * MiB),
            MemoryRequest(RequestKind.MALLOC, "b", 3 * MiB),
            MemoryRequest(RequestKind.FREE, "a", 2 * MiB),
            MemoryRequest(RequestKind.FREE, "b", 3 * MiB),
        ]
        stats = allocator.replay(trace)
        assert stats.peak_allocated_bytes == 5 * MiB
