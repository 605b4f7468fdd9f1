"""Block and segment structures shared by the allocator simulators."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


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

    def largest_free_block(self) -> int:
        """Size of the largest free block inside this segment."""
        free_sizes = [block.size for block in self.blocks if not block.allocated]
        return max(free_sizes) if free_sizes else 0

    def find_free_block(self, size: int) -> Optional[int]:
        """Index of the smallest free block that fits ``size`` (best fit)."""
        best_index = None
        best_size = None
        for index, block in enumerate(self.blocks):
            if block.allocated or block.size < size:
                continue
            if best_size is None or block.size < best_size:
                best_index = index
                best_size = block.size
        return best_index

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

    def free_tensor(self, tensor_id: str) -> Optional[int]:
        """Free the block backing ``tensor_id`` and coalesce free neighbours.

        Returns the freed block's size, or None if no block backs the tensor.
        """
        for index, block in enumerate(self.blocks):
            if block.allocated and block.tensor_id == tensor_id:
                freed = block.size
                block.allocated = False
                block.tensor_id = None
                self.allocated_bytes -= freed
                self._coalesce_around(index)
                return freed
        return None

    def _coalesce_around(self, index: int) -> None:
        # Merge with the following block first so the index stays valid.
        while index + 1 < len(self.blocks) and not self.blocks[index].allocated \
                and not self.blocks[index + 1].allocated:
            self.blocks[index].size += self.blocks[index + 1].size
            del self.blocks[index + 1]
        while index > 0 and not self.blocks[index].allocated and not self.blocks[index - 1].allocated:
            self.blocks[index - 1].size += self.blocks[index].size
            del self.blocks[index]
            index -= 1
