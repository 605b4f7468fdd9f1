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
    #: Total size of the allocated blocks, kept current by the allocator.
    allocated_bytes: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if not self.blocks:
            self.blocks = [Block(offset=0, size=self.size)]
        self.allocated_bytes = sum(block.size for block in self.blocks if block.allocated)

    @property
    def is_fully_free(self) -> bool:
        return self.allocated_bytes == 0
