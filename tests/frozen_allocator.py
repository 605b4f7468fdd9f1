"""A frozen copy of the caching allocator's layered request path.

Before ``CachingAllocator.malloc`` and ``free`` each became one flat body,
a request went through ``_try_allocate`` and ``_record`` and three ``Segment``
helpers (``block_at``, ``allocate_in_block``, ``free_tensor``).  This copy
keeps those bodies, as functions over a ``Segment`` and as method overrides
(``_rounded`` inlined), so tests can replay the same requests through both
and compare every piece of state.  It shares the seams the flat path kept:
``_take_best_fit``, ``_unindex`` and ``_reorganize``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import attrgetter
from typing import List, Optional, Tuple

from repro.memory.block import Block, Segment
from repro.memory.caching_allocator import CachingAllocator, OutOfMemoryError


def block_at(segment: Segment, offset: int) -> int:
    """Index of the block at ``offset`` (blocks are kept in offset order)."""
    return bisect_left(segment.blocks, offset, key=attrgetter("offset"))


def allocate_in_block(segment: Segment, index: int, size: int, tensor_id: str) -> Block:
    """Allocate ``size`` bytes at the beginning of free block ``index``, splitting it."""
    block = segment.blocks[index]
    if block.allocated:
        raise ValueError("cannot allocate in an already-allocated block")
    if block.size < size:
        raise ValueError("block too small for allocation")
    segment.allocated_bytes += size
    if block.size == size:
        block.allocated = True
        block.tensor_id = tensor_id
        return block
    remainder = Block(offset=block.offset + size, size=block.size - size)
    block.size = size
    block.allocated = True
    block.tensor_id = tensor_id
    segment.blocks.insert(index + 1, remainder)
    return block


def free_tensor(segment: Segment, tensor_id: str, offset: int) -> Optional[List[Tuple[int, int]]]:
    """Free the block at ``offset`` backing ``tensor_id`` and coalesce free neighbours.

    Returns the ``(size, offset)`` of each block of the coalesced run as it
    was before merging, the freed one included; None if that block does not
    back ``tensor_id``.
    """
    blocks = segment.blocks
    low = block_at(segment, offset)
    if low == len(blocks) or blocks[low].tensor_id != tensor_id:
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


class LayeredAllocator(CachingAllocator):
    """The allocator with the layered ``malloc``/``free`` it had before flattening."""

    def malloc(self, tensor_id: str, size: int) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        if tensor_id in self._tensor_blocks:
            raise ValueError(f"tensor {tensor_id!r} is already allocated")
        rounded = -(-size // self.round_to_bytes) * self.round_to_bytes
        self.stats.num_mallocs += 1

        placed = self._try_allocate(tensor_id, rounded)
        if placed is None:
            released = self._reorganize()
            if released:
                placed = self._try_allocate(tensor_id, rounded)
        if placed is None:
            self.stats.num_failed_allocations += 1
            raise OutOfMemoryError(
                f"cannot allocate {rounded} bytes for {tensor_id!r}: "
                f"reserved={self.reserved_bytes}, allocated={self.allocated_bytes}, "
                f"capacity={self.capacity_bytes}",
                requested=rounded,
                reserved=self.reserved_bytes,
                allocated=self.allocated_bytes,
            )
        self._tensor_blocks[tensor_id] = (*placed, rounded)
        self._record()

    def _try_allocate(self, tensor_id: str, rounded: int) -> Optional[Tuple[int, int]]:
        fit = self._take_best_fit(rounded)
        if fit is None:
            segment_size = max(rounded, self.small_segment_bytes)
            if rounded >= self.large_request_threshold:
                segment_size = rounded
            if self.reserved_bytes + segment_size > self.capacity_bytes:
                return None
            self.segments.append(Segment(start=self._next_segment_start, size=segment_size))
            self._next_segment_start += segment_size
            self._reserved_bytes += segment_size
            self.stats.num_segment_allocations += 1
            fit = (segment_size, len(self.segments) - 1, 0)
        size, position, offset = fit
        segment = self.segments[position]
        allocate_in_block(segment, block_at(segment, offset), rounded, tensor_id)
        if size > rounded:
            insort(self._free_blocks, (size - rounded, position, offset + rounded))
        self._allocated_bytes += rounded
        return position, offset

    def free(self, tensor_id: str) -> None:
        placed = self._tensor_blocks.pop(tensor_id, None)
        if placed is None:
            raise KeyError(f"tensor {tensor_id!r} is not allocated")
        position, offset, size = placed
        run = free_tensor(self.segments[position], tensor_id, offset)
        if run is None:
            raise KeyError(f"tensor {tensor_id!r} not found in its segment")
        for block_size, block_offset in run:
            if block_offset != offset:
                self._unindex((block_size, position, block_offset))
        insort(self._free_blocks, (sum(block_size for block_size, _ in run), position, run[0][1]))
        self._allocated_bytes -= size
        self.stats.num_frees += 1
        self._record()

    def _record(self) -> None:
        allocated = self._allocated_bytes
        reserved = self._reserved_bytes
        self.stats.peak_allocated_bytes = max(self.stats.peak_allocated_bytes, allocated)
        self.stats.peak_reserved_bytes = max(self.stats.peak_reserved_bytes, reserved)
        self.timeline.record(self._step, allocated, reserved)
        self._step += 1
