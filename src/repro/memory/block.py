"""Block and segment structures shared by the allocator simulators."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
from typing import List, Optional, Tuple


@dataclass
class Block:
    """A contiguous region inside a segment.

    A block is either allocated (backing one tensor) or free (available for
    reuse).  Free neighbouring blocks can be coalesced.
    """

    offset: int
    size: int
    allocated: bool = False
    tensor_id: Optional[str] = None

    @property
    def end(self) -> int:
        return self.offset + self.size


@dataclass
class Segment:
    """A contiguous region obtained from the device via ``cudaMalloc``.

    PyTorch's caching allocator requests segments from the driver and carves
    blocks out of them; segments are only returned to the driver during the
    expensive reorganisation path (``cudaFree``).
    """

    start: int
    size: int
    blocks: List[Block] = field(default_factory=list)
    #: Total size of the allocated blocks, kept current by allocate and free.
    allocated_bytes: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if not self.blocks:
            self.blocks = [Block(offset=0, size=self.size)]
        self.allocated_bytes = sum(block.size for block in self.blocks if block.allocated)

    @property
    def free_bytes(self) -> int:
        return self.size - self.allocated_bytes

    @property
    def is_fully_free(self) -> bool:
        return self.allocated_bytes == 0

    def block_at(self, offset: int) -> int:
        """Index of the block at ``offset`` (blocks are kept in offset order)."""
        return bisect_left(self.blocks, offset, key=attrgetter("offset"))

    def allocate_in_block(self, index: int, size: int, tensor_id: str) -> Block:
        """Allocate ``size`` bytes at the beginning of free block ``index``.

        The block is split when larger than the request, matching the caching
        allocator's split behaviour that creates small remainder blocks (a
        primary source of fragmentation).
        """
        block = self.blocks[index]
        if block.allocated:
            raise ValueError("cannot allocate in an already-allocated block")
        if block.size < size:
            raise ValueError("block too small for allocation")
        self.allocated_bytes += size
        if block.size == size:
            block.allocated = True
            block.tensor_id = tensor_id
            return block
        remainder = Block(offset=block.offset + size, size=block.size - size)
        block.size = size
        block.allocated = True
        block.tensor_id = tensor_id
        self.blocks.insert(index + 1, remainder)
        return block

    def free_tensor(self, tensor_id: str, offset: int) -> Optional[List[Tuple[int, int]]]:
        """Free the block at ``offset`` backing ``tensor_id`` and coalesce free neighbours.

        Returns the ``(size, offset)`` of each block of the coalesced run as it
        was before merging, the freed one included; None if that block does
        not back ``tensor_id``.
        """
        blocks = self.blocks
        low = self.block_at(offset)
        if low == len(blocks) or blocks[low].tensor_id != tensor_id:
            return None
        block = blocks[low]
        block.allocated = False
        block.tensor_id = None
        self.allocated_bytes -= block.size
        # Merge the maximal run of free blocks around it into the run's first.
        high = low + 1
        while low > 0 and not blocks[low - 1].allocated:
            low -= 1
        while high < len(blocks) and not blocks[high].allocated:
            high += 1
        run = [(b.size, b.offset) for b in blocks[low:high]]
        blocks[low].size = sum(size for size, _ in run)
        del blocks[low + 1:high]
        return run
