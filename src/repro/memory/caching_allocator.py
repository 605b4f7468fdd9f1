"""A PyTorch-style caching allocator simulator.

The simulator reproduces the behaviour that matters for the paper:

* memory is obtained from the device in *segments* (``cudaMalloc``) and carved
  into *blocks*; freed blocks are cached and reused instead of being returned
  to the driver;
* blocks are split on allocation and coalesced with free neighbours on free,
  which over time produces *fragmentation*: reserved-but-unallocated memory
  that cannot satisfy a large contiguous request (Figure 1(a));
* when no cached block fits and the device has no room for a new segment, the
  allocator falls back to *reorganisation*: fully-free segments are released
  (``cudaFree``) and a fresh segment is allocated -- an expensive, GPU-blocking
  operation the paper identifies as a major source of slowdown;
* if even reorganisation cannot produce enough contiguous space, the request
  fails with an out-of-memory error.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import MiB
from repro.memory.block import Block, Segment
from repro.memory.request import MemoryRequest, RequestKind
from repro.memory.snapshot import MemoryTimeline

_OFFSET = attrgetter("offset")


class OutOfMemoryError(RuntimeError):
    """Raised when an allocation cannot be satisfied even after reorganisation."""

    def __init__(self, message: str, requested: int, reserved: int, allocated: int) -> None:
        super().__init__(message)
        self.requested = requested
        self.reserved = reserved
        self.allocated = allocated


@dataclass
class AllocatorStats:
    """Counters accumulated while replaying a trace."""

    num_mallocs: int = 0
    num_frees: int = 0
    num_segment_allocations: int = 0
    num_reorganizations: int = 0
    num_failed_allocations: int = 0
    peak_allocated_bytes: int = 0
    peak_reserved_bytes: int = 0


@dataclass
class CachingAllocator:
    """Simulated PyTorch CUDA caching allocator.

    Args:
        capacity_bytes: device memory available to the allocator.
        round_to_bytes: allocation granularity; requests are rounded up to a
            multiple of this value (PyTorch rounds to 512-byte multiples and
            uses coarser buckets for large blocks, which amplifies
            fragmentation for long-context workloads).
        large_request_threshold: requests at or above this size get their own
            dedicated segment sized exactly to the request, mirroring the
            caching allocator's large-block pool.
        small_segment_bytes: segment size used to back small requests.
    """

    capacity_bytes: int
    round_to_bytes: int = 512
    large_request_threshold: int = 1 * MiB
    small_segment_bytes: int = 2 * MiB
    segments: List[Segment] = field(default_factory=list)
    stats: AllocatorStats = field(default_factory=AllocatorStats)
    timeline: MemoryTimeline = field(default_factory=MemoryTimeline)
    _tensor_blocks: Dict[str, Tuple[int, int, int]] = field(default_factory=dict)
    _next_segment_start: int = 0
    _step: int = 0
    # Running totals, kept current where blocks and segments change, so that
    # recording a request does not re-sum every segment.
    _allocated_bytes: int = field(init=False, default=0)
    _reserved_bytes: int = field(init=False, default=0)
    # Sorted (size, segment position, offset) per free block.  Positions, not
    # ``Segment.start``, key it: caller-supplied segments' starts may collide.
    _free_blocks: List[Tuple[int, int, int]] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if self.round_to_bytes <= 0:
            raise ValueError("round_to_bytes must be positive")
        self._allocated_bytes = sum(segment.allocated_bytes for segment in self.segments)
        self._reserved_bytes = sum(segment.size for segment in self.segments)
        self._index_free_blocks()

    # ------------------------------------------------------------------ sizes
    @property
    def reserved_bytes(self) -> int:
        """Memory held from the device (sum of segment sizes)."""
        return self._reserved_bytes

    @property
    def allocated_bytes(self) -> int:
        """Memory currently backing live tensors."""
        return self._allocated_bytes

    @property
    def fragmentation_bytes(self) -> int:
        """Reserved-but-unallocated memory."""
        return self.reserved_bytes - self.allocated_bytes

    # ---------------------------------------------------------------- replay
    def replay(self, trace: Sequence[MemoryRequest]) -> AllocatorStats:
        """Replay a malloc/free trace, recording stats and the memory timeline."""
        malloc, free = self.malloc, self.free
        for kind, tensor_id, size in trace:
            if kind is RequestKind.MALLOC:
                malloc(tensor_id, size)
            else:
                free(tensor_id)
        return self.stats

    # ---------------------------------------------------------------- malloc
    def malloc(self, tensor_id: str, size: int) -> None:
        """Allocate ``size`` bytes for ``tensor_id``.

        The request is rounded up, placed at the start of the best-fitting
        cached block (or of a new segment), and the block is split when
        larger, leaving the remainder free.

        Raises:
            ValueError: if ``size`` is not a positive int or the tensor is live.
            OutOfMemoryError: when no contiguous space can be found even after
                releasing cached segments.
        """
        if type(size) is not int:
            raise ValueError(f"size must be an int, got {size!r}")
        if size <= 0:
            raise ValueError("size must be positive")
        if tensor_id in self._tensor_blocks:
            raise ValueError(f"tensor {tensor_id!r} is already allocated")
        rounded = -(-size // self.round_to_bytes) * self.round_to_bytes
        stats = self.stats
        stats.num_mallocs += 1

        fit = self._take_best_fit(rounded)
        if fit is None:
            fit = self._grow(tensor_id, rounded)
        _, position, offset = fit
        segment = self.segments[position]
        blocks = segment.blocks
        # Blocks are in offset order from 0, so offset 0 (every new segment's
        # block) is the first one.
        index = bisect_left(blocks, offset, key=_OFFSET) if offset else 0
        block = blocks[index]
        if block.allocated:
            raise ValueError("cannot allocate in an already-allocated block")
        remainder = block.size - rounded
        if remainder < 0:
            raise ValueError("block too small for allocation")
        block.allocated = True
        block.tensor_id = tensor_id
        if remainder:  # split: the remainder stays free
            block.size = rounded
            blocks.insert(index + 1, Block(offset + rounded, remainder))
            insort(self._free_blocks, (remainder, position, offset + rounded))
        segment.allocated_bytes += rounded
        self._tensor_blocks[tensor_id] = (position, offset, rounded)

        allocated = self._allocated_bytes = self._allocated_bytes + rounded
        reserved = self._reserved_bytes
        if allocated > stats.peak_allocated_bytes:
            stats.peak_allocated_bytes = allocated
        if reserved > stats.peak_reserved_bytes:
            stats.peak_reserved_bytes = reserved
        self.timeline.record(self._step, allocated, reserved)
        self._step += 1

    def _take_best_fit(self, rounded: int) -> Optional[Tuple[int, int, int]]:
        """Unindex and return the free block that wastes least, ties to the first
        segment, then block: the first entry at or above ``(rounded,)``, as
        segments are in position order and blocks in offset order."""
        slot = bisect_left(self._free_blocks, (rounded,))
        return self._free_blocks.pop(slot) if slot < len(self._free_blocks) else None

    def _unindex(self, entry: Tuple[int, int, int]) -> None:
        del self._free_blocks[bisect_left(self._free_blocks, entry)]

    def _index_free_blocks(self) -> None:
        self._free_blocks = sorted(
            (block.size, position, block.offset) for position, segment in enumerate(self.segments)
            for block in segment.blocks if not block.allocated
        )

    def _grow(self, tensor_id: str, rounded: int) -> Tuple[int, int, int]:
        """cudaMalloc a segment for a request no cached block fits and return
        its one free block's entry.

        When the device has no room, the allocator first reorganises
        (cudaFree of every fully-free cached segment, PyTorch's "release
        cached blocks" path); no cached block fits afterwards either, as
        reorganising only drops fully-free segments.  Raises
        :class:`OutOfMemoryError` when there is still no room.
        """
        segment_size = rounded if rounded >= self.large_request_threshold else max(
            rounded, self.small_segment_bytes,
        )
        if self._reserved_bytes + segment_size > self.capacity_bytes and not (
            self._reorganize() and self._reserved_bytes + segment_size <= self.capacity_bytes
        ):
            self.stats.num_failed_allocations += 1
            raise OutOfMemoryError(
                f"cannot allocate {rounded} bytes for {tensor_id!r}: "
                f"reserved={self._reserved_bytes}, allocated={self._allocated_bytes}, "
                f"capacity={self.capacity_bytes}",
                requested=rounded,
                reserved=self._reserved_bytes,
                allocated=self._allocated_bytes,
            )
        self.segments.append(Segment(start=self._next_segment_start, size=segment_size))
        self._next_segment_start += segment_size
        self._reserved_bytes += segment_size
        self.stats.num_segment_allocations += 1
        return segment_size, len(self.segments) - 1, 0

    def _reorganize(self) -> int:
        """Release all fully-free cached segments back to the device.

        Returns the number of bytes released.  Each invocation models a round
        of ``cudaFree`` calls that blocks GPU computation (the stall cost is
        charged by the cost model, not here).
        """
        released = 0
        kept: List[Segment] = []
        index_remap: Dict[int, int] = {}
        for old_index, segment in enumerate(self.segments):
            if segment.is_fully_free:
                released += segment.size
            else:
                index_remap[old_index] = len(kept)
                kept.append(segment)
        if released:
            self.segments = kept
            self._reserved_bytes -= released
            self._tensor_blocks = {
                tensor: (index_remap[position], offset, size)
                for tensor, (position, offset, size) in self._tensor_blocks.items()
            }
            self._index_free_blocks()
            self.stats.num_reorganizations += 1
        return released

    # ------------------------------------------------------------------ free
    def free(self, tensor_id: str) -> None:
        """Release the memory backing ``tensor_id`` back to the block cache,
        coalescing the run of free blocks around it into the run's first."""
        placed = self._tensor_blocks.pop(tensor_id, None)
        if placed is None:
            raise KeyError(f"tensor {tensor_id!r} is not allocated")
        position, offset, size = placed
        segment = self.segments[position]
        blocks = segment.blocks
        low = bisect_left(blocks, offset, key=_OFFSET) if offset else 0
        if low == len(blocks) or blocks[low].tensor_id != tensor_id:
            raise KeyError(f"tensor {tensor_id!r} not found in its segment")
        block = blocks[low]
        block.allocated = False
        block.tensor_id = None
        segment.allocated_bytes -= size
        run_size = size
        high = low + 1
        while high < len(blocks) and not blocks[high].allocated:
            absorbed = blocks[high]
            self._unindex((absorbed.size, position, absorbed.offset))
            run_size += absorbed.size
            high += 1
        while low > 0 and not blocks[low - 1].allocated:
            low -= 1
            block = blocks[low]
            self._unindex((block.size, position, block.offset))
            run_size += block.size
        block.size = run_size
        del blocks[low + 1:high]
        insort(self._free_blocks, (run_size, position, block.offset))

        self.stats.num_frees += 1
        allocated = self._allocated_bytes = self._allocated_bytes - size
        # A free raises neither total, so neither peak.
        self.timeline.record(self._step, allocated, self._reserved_bytes)
        self._step += 1
