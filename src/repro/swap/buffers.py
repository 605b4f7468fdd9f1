"""Rounding buffers for skeletal activations (Figure 5).

MEMO pre-allocates two GPU buffers before training.  Layers with even indices
write their skeletal activations into buffer 0, odd layers into buffer 1.
After layer ``i`` finishes its forward pass, buffer ``i % 2`` is offloaded to
the CPU on the D2H stream while layer ``i + 1`` computes; layer ``i + 2`` may
only overwrite the buffer once the offload completed (enforced with a CUDA
event in the real system, with an explicit dependency in the simulator).
The backward pass mirrors this with the H2D (prefetch) stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class BufferAssignment:
    """Which rounding buffer a given layer uses."""

    layer_index: int
    buffer_index: int


@dataclass(frozen=True)
class RoundingBuffers:
    """The pair of pre-allocated skeletal-activation buffers.

    Attributes:
        buffer_bytes: size of each buffer; it must hold one layer's resident
            skeletal activations (the part not offloaded plus staging space for
            the part being offloaded).
        num_buffers: the paper uses exactly two; the class supports more for
            ablation, which trades GPU memory for extra offload slack.
    """

    buffer_bytes: int
    num_buffers: int = 2

    def __post_init__(self) -> None:
        if self.buffer_bytes < 0:
            raise ValueError("buffer_bytes must be non-negative")
        if self.num_buffers < 2:
            raise ValueError("at least two rounding buffers are required for overlap")

    @property
    def total_bytes(self) -> int:
        """GPU memory consumed by all rounding buffers."""
        return self.buffer_bytes * self.num_buffers

    def assignment(self, layer_index: int) -> BufferAssignment:
        """Buffer used by a layer: round-robin over the buffer pool."""
        if layer_index < 0:
            raise ValueError("layer_index must be non-negative")
        return BufferAssignment(layer_index, layer_index % self.num_buffers)

    def assignments(self, num_layers: int) -> List[BufferAssignment]:
        """Buffer assignment for every layer of the model."""
        return [self.assignment(layer) for layer in range(num_layers)]
