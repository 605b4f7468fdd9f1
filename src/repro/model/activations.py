"""Catalogue of the activation tensors produced by one transformer layer.

The paper (Section 3, Figure 3(b) and Figure 4) distinguishes two classes of
activations:

* **Skeletal activations** are produced during the forward pass and must be
  kept (or rematerialised) for the backward pass.  For a GPT transformer layer
  they total ``16 * b * s * h`` elements.
* **Transient activations** are temporaries created and destroyed inside one
  layer's forward or backward pass; they never cross the forward/backward
  boundary but their frequent (de)allocation causes fragmentation.

The catalogue below is parameterised by the model configuration and the
per-device (batch, sequence) shape, and is the single source of truth used by
the memory-trace generator, the swapping scheduler and the cost model.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import List

from repro.config import DEFAULT_PRECISION, PrecisionConfig
from repro.model.specs import ModelConfig


class TensorRole(Enum):
    """Life-cycle class of an activation tensor."""

    SKELETAL = "skeletal"
    TRANSIENT = "transient"


@dataclass(frozen=True)
class TensorSpec:
    """A named activation tensor with its size expressed in elements.

    Attributes:
        name: tensor name as used in Figure 4 of the paper.
        elements_per_token: number of elements per (batch x token) position.
            The familiar ``bsh``-sized tensors have ``elements_per_token == h``.
        role: whether the tensor is skeletal or transient.
        module: coarse module the tensor belongs to (attention / ffn / norm).
        token_sliceable: whether the tensor can be partitioned along the token
            dimension (a requirement for token-wise swapping).
    """

    name: str
    elements_per_token: int
    role: TensorRole
    module: str
    token_sliceable: bool = True

    def elements(self, batch_size: int, sequence_length: int) -> int:
        """Total number of elements for a given per-device shape."""
        return batch_size * sequence_length * self.elements_per_token

    def bytes(
        self,
        batch_size: int,
        sequence_length: int,
        precision: PrecisionConfig = DEFAULT_PRECISION,
    ) -> int:
        """Size in bytes for a given per-device shape."""
        return self.elements(batch_size, sequence_length) * precision.activation_bytes


#: Number of skeletal activation elements per (batch x token) position,
#: measured in units of the hidden size ``h``.  Figure 4: 16 * b * s * h.
SKELETAL_ELEMENTS_PER_TOKEN = 16


def skeletal_tensors(model: ModelConfig) -> List[TensorSpec]:
    """The skeletal activation tensors of one transformer layer (Figure 4)."""
    h = model.hidden_size
    ffn = model.ffn_hidden_size
    return [
        TensorSpec("input", h, TensorRole.SKELETAL, "layer"),
        TensorSpec("input_norm_output", h, TensorRole.SKELETAL, "attention"),
        TensorSpec("q", h, TensorRole.SKELETAL, "attention"),
        TensorSpec("k", h, TensorRole.SKELETAL, "attention"),
        TensorSpec("v", h, TensorRole.SKELETAL, "attention"),
        TensorSpec("flash_attn_output", h, TensorRole.SKELETAL, "attention"),
        TensorSpec("attn_residual_output", h, TensorRole.SKELETAL, "ffn"),
        TensorSpec("post_attn_norm_output", h, TensorRole.SKELETAL, "ffn"),
        TensorSpec("h_to_4h_output", ffn, TensorRole.SKELETAL, "ffn"),
        TensorSpec("gelu_output", ffn, TensorRole.SKELETAL, "ffn"),
    ]


def transient_forward_tensors(model: ModelConfig) -> List[TensorSpec]:
    """Transient temporaries created during one layer's forward pass.

    The paper observes that transient tensors outnumber skeletal ones (more
    than 5x in count).  The exact set depends on kernel implementation; the
    catalogue below models the dominant temporaries of a Megatron-style layer:
    fused QKV output, attention softmax statistics, dense/FFN workspace buffers
    and dropout masks.
    """
    h = model.hidden_size
    ffn = model.ffn_hidden_size
    return [
        TensorSpec("qkv_packed", 3 * h, TensorRole.TRANSIENT, "attention"),
        TensorSpec("attn_softmax_stats", 2 * model.num_heads, TensorRole.TRANSIENT, "attention"),
        TensorSpec("attn_dense_workspace", h, TensorRole.TRANSIENT, "attention"),
        TensorSpec("attn_dropout_mask", h, TensorRole.TRANSIENT, "attention"),
        TensorSpec("residual_workspace", h, TensorRole.TRANSIENT, "ffn"),
        TensorSpec("ffn_workspace", ffn, TensorRole.TRANSIENT, "ffn"),
        TensorSpec("ffn_dropout_mask", h, TensorRole.TRANSIENT, "ffn"),
        TensorSpec("layer_output", h, TensorRole.TRANSIENT, "layer"),
    ]


def transient_backward_tensors(model: ModelConfig) -> List[TensorSpec]:
    """Transient temporaries created during one layer's backward pass."""
    h = model.hidden_size
    ffn = model.ffn_hidden_size
    return [
        TensorSpec("grad_layer_output", h, TensorRole.TRANSIENT, "layer"),
        TensorSpec("grad_gelu", ffn, TensorRole.TRANSIENT, "ffn"),
        TensorSpec("grad_h_to_4h", ffn, TensorRole.TRANSIENT, "ffn"),
        TensorSpec("grad_post_attn_norm", h, TensorRole.TRANSIENT, "ffn"),
        TensorSpec("grad_attn_residual", h, TensorRole.TRANSIENT, "attention"),
        TensorSpec("grad_flash_attn", h, TensorRole.TRANSIENT, "attention"),
        TensorSpec("grad_qkv", 3 * h, TensorRole.TRANSIENT, "attention"),
        TensorSpec("grad_input_norm", h, TensorRole.TRANSIENT, "attention"),
        TensorSpec("grad_layer_input", h, TensorRole.TRANSIENT, "layer"),
    ]


def skeletal_elements_per_layer(model: ModelConfig, batch_size: int, sequence_length: int) -> int:
    """Total skeletal activation elements of one layer for a per-device shape."""
    return sum(t.elements(batch_size, sequence_length) for t in skeletal_tensors(model))


@functools.lru_cache(maxsize=1024)
def skeletal_bytes_per_layer(
    model: ModelConfig,
    batch_size: int,
    sequence_length: int,
    precision: PrecisionConfig = DEFAULT_PRECISION,
) -> int:
    """Total skeletal activation bytes of one layer for a per-device shape.

    Memoized per shape (``clear_fastpath_caches`` empties the memo): the
    strategy search asks for the same few shapes once per candidate.
    """
    return sum(t.bytes(batch_size, sequence_length, precision) for t in skeletal_tensors(model))


def skeletal_breakdown_bytes(
    model: ModelConfig,
    batch_size: int,
    sequence_length: int,
    precision: PrecisionConfig = DEFAULT_PRECISION,
) -> dict:
    """Split skeletal bytes into the three categories used by the alpha LP.

    Returns a dict with keys ``input`` (the layer input tensor), ``attn``
    (the FlashAttention output tensor) and ``others`` (everything else), which
    are the :math:`S_{input}`, :math:`S_{attn}` and :math:`S_{others}`
    quantities of Section 4.1.
    """
    sizes = {"input": 0, "attn": 0, "others": 0}
    for tensor in skeletal_tensors(model):
        size = tensor.bytes(batch_size, sequence_length, precision)
        if tensor.name == "input":
            sizes["input"] += size
        elif tensor.name == "flash_attn_output":
            sizes["attn"] += size
        else:
            sizes["others"] += size
    return sizes
