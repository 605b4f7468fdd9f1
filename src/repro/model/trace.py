"""Memory request traces for LLM training (Figure 3(b) and Figure 8).

A trace is a sequence of ``malloc``/``free`` events against the GPU memory
allocator.  These traces are the input both to the caching-allocator simulator
(which reproduces fragmentation) and to the bi-level memory planner (which
statically assigns addresses).

Transient tensors are allocated and freed within a single layer's forward or
backward pass; skeletal tensors allocated in the forward pass stay alive until
the corresponding backward pass (unless swapped/recomputed, in which case their
lifetime is managed by the rounding buffers instead of the allocator).
"""

from __future__ import annotations

import functools
from typing import List, Optional, Tuple

from repro.config import DEFAULT_PRECISION, PLAN_MEMO_SIZE, PrecisionConfig, require_count
from repro.memory.request import MemoryRequest, RequestKind
from repro.model.activations import (
    TensorRole,
    skeletal_tensors,
    transient_backward_tensors,
    transient_forward_tensors,
)
from repro.model.specs import ModelConfig


def _tensor_bytes(spec, batch_size, sequence_length, precision) -> int:
    size = spec.bytes(batch_size, sequence_length, precision)
    # Allocators operate on non-zero sizes; clamp tiny statistics tensors up.
    return max(size, 512)


def layer_forward_trace(
    model: ModelConfig,
    batch_size: int,
    sequence_length: int,
    layer_index: int = 0,
    precision: PrecisionConfig = DEFAULT_PRECISION,
    include_skeletal: bool = True,
) -> List[MemoryRequest]:
    """Malloc/free trace of one transformer layer's forward pass.

    Transient tensors are freed inside the pass (in an interleaved order that
    mimics real executions and therefore stresses the allocator); skeletal
    tensors are allocated but not freed here.

    Args:
        include_skeletal: when False, skeletal tensors are omitted entirely,
            modelling the MEMO runtime where skeletal activations live in
            pre-allocated rounding buffers rather than going through the
            dynamic allocator.
    """
    prefix = f"L{layer_index}.fwd"
    requests: List[MemoryRequest] = []
    transients = transient_forward_tensors(model)
    skeletals = skeletal_tensors(model)

    def malloc(name: str, size: int) -> None:
        requests.append(MemoryRequest(RequestKind.MALLOC, f"{prefix}.{name}", size))

    def free(name: str, size: int) -> None:
        requests.append(MemoryRequest(RequestKind.FREE, f"{prefix}.{name}", size))

    sizes = {
        spec.name: _tensor_bytes(spec, batch_size, sequence_length, precision)
        for spec in transients + skeletals
    }

    # Attention block.  When skeletal tensors go through the allocator, the
    # hidden-states tensor entering the layer is retained for the backward pass
    # (it doubles as the previous layer's output), so it is allocated here and
    # freed by the corresponding backward trace.
    if include_skeletal:
        malloc("input", sizes["input"])
        malloc("input_norm_output", sizes["input_norm_output"])
    malloc("qkv_packed", sizes["qkv_packed"])
    if include_skeletal:
        malloc("q", sizes["q"])
        malloc("k", sizes["k"])
        malloc("v", sizes["v"])
    free("qkv_packed", sizes["qkv_packed"])
    malloc("attn_softmax_stats", sizes["attn_softmax_stats"])
    if include_skeletal:
        malloc("flash_attn_output", sizes["flash_attn_output"])
    malloc("attn_dense_workspace", sizes["attn_dense_workspace"])
    malloc("attn_dropout_mask", sizes["attn_dropout_mask"])
    free("attn_dense_workspace", sizes["attn_dense_workspace"])
    free("attn_softmax_stats", sizes["attn_softmax_stats"])
    if include_skeletal:
        malloc("attn_residual_output", sizes["attn_residual_output"])
    free("attn_dropout_mask", sizes["attn_dropout_mask"])

    # FFN block.
    if include_skeletal:
        malloc("post_attn_norm_output", sizes["post_attn_norm_output"])
    malloc("residual_workspace", sizes["residual_workspace"])
    if include_skeletal:
        malloc("h_to_4h_output", sizes["h_to_4h_output"])
    malloc("ffn_workspace", sizes["ffn_workspace"])
    if include_skeletal:
        malloc("gelu_output", sizes["gelu_output"])
    free("residual_workspace", sizes["residual_workspace"])
    malloc("ffn_dropout_mask", sizes["ffn_dropout_mask"])
    if not include_skeletal:
        # Under MEMO the layer output is copied into the next layer's rounding
        # buffer and the transient is released; with allocator-managed skeletal
        # tensors the output *is* the next layer's retained input, so no extra
        # transient is modelled here.
        malloc("layer_output", sizes["layer_output"])
    free("ffn_workspace", sizes["ffn_workspace"])
    free("ffn_dropout_mask", sizes["ffn_dropout_mask"])
    if not include_skeletal:
        free("layer_output", sizes["layer_output"])
    return requests


def layer_backward_trace(
    model: ModelConfig,
    batch_size: int,
    sequence_length: int,
    layer_index: int = 0,
    precision: PrecisionConfig = DEFAULT_PRECISION,
    include_skeletal_frees: bool = True,
) -> List[MemoryRequest]:
    """Malloc/free trace of one transformer layer's backward pass.

    Gradient temporaries are allocated/freed in reverse module order; the
    layer's skeletal activations (allocated by the matching forward trace) are
    freed as soon as their gradients have been produced.
    """
    prefix = f"L{layer_index}"
    requests: List[MemoryRequest] = []
    transients = transient_backward_tensors(model)
    skeletals = skeletal_tensors(model)
    sizes = {
        spec.name: _tensor_bytes(spec, batch_size, sequence_length, precision)
        for spec in transients + skeletals
    }

    def malloc(name: str) -> None:
        requests.append(MemoryRequest(RequestKind.MALLOC, f"{prefix}.bwd.{name}", sizes[name]))

    def free_transient(name: str) -> None:
        requests.append(MemoryRequest(RequestKind.FREE, f"{prefix}.bwd.{name}", sizes[name]))

    def free_skeletal(name: str) -> None:
        requests.append(MemoryRequest(RequestKind.FREE, f"{prefix}.fwd.{name}", sizes[name]))

    malloc("grad_layer_output")
    # FFN backward.
    malloc("grad_gelu")
    if include_skeletal_frees:
        free_skeletal("gelu_output")
    malloc("grad_h_to_4h")
    free_transient("grad_gelu")
    if include_skeletal_frees:
        free_skeletal("h_to_4h_output")
    malloc("grad_post_attn_norm")
    free_transient("grad_h_to_4h")
    if include_skeletal_frees:
        free_skeletal("post_attn_norm_output")
    malloc("grad_attn_residual")
    free_transient("grad_post_attn_norm")
    if include_skeletal_frees:
        free_skeletal("attn_residual_output")
    # Attention backward.
    malloc("grad_flash_attn")
    if include_skeletal_frees:
        free_skeletal("flash_attn_output")
    malloc("grad_qkv")
    free_transient("grad_flash_attn")
    if include_skeletal_frees:
        free_skeletal("q")
        free_skeletal("k")
        free_skeletal("v")
    malloc("grad_input_norm")
    free_transient("grad_qkv")
    if include_skeletal_frees:
        free_skeletal("input_norm_output")
    malloc("grad_layer_input")
    free_transient("grad_input_norm")
    free_transient("grad_attn_residual")
    if include_skeletal_frees:
        free_skeletal("input")
    free_transient("grad_layer_output")
    free_transient("grad_layer_input")
    return requests


def embedding_trace(
    model: ModelConfig,
    batch_size: int,
    sequence_length: int,
    precision: PrecisionConfig = DEFAULT_PRECISION,
) -> List[MemoryRequest]:
    """Forward trace of the embedding layer (one persistent hidden-state tensor)."""
    hidden_bytes = batch_size * sequence_length * model.hidden_size * precision.activation_bytes
    return [MemoryRequest(RequestKind.MALLOC, "embedding.hidden_states", max(hidden_bytes, 512))]


def classifier_trace(
    model: ModelConfig,
    batch_size: int,
    sequence_length: int,
    precision: PrecisionConfig = DEFAULT_PRECISION,
    logit_chunk_tokens: Optional[int] = None,
) -> List[MemoryRequest]:
    """Forward + backward trace of the classifier (logit) layer.

    Logits over the full vocabulary are enormous for long sequences, so real
    systems compute them in token chunks; the chunk size bounds the transient
    allocation.
    """
    if logit_chunk_tokens is None:
        logit_chunk_tokens = min(sequence_length, 4096)
    logits_bytes = batch_size * logit_chunk_tokens * model.vocab_size * 4
    loss_bytes = batch_size * sequence_length * 4
    requests = [
        MemoryRequest(RequestKind.MALLOC, "classifier.logits_chunk", logits_bytes),
        MemoryRequest(RequestKind.MALLOC, "classifier.loss", max(loss_bytes, 512)),
        MemoryRequest(RequestKind.FREE, "classifier.logits_chunk", logits_bytes),
        MemoryRequest(RequestKind.MALLOC, "classifier.grad_hidden",
                      batch_size * sequence_length * model.hidden_size * precision.activation_bytes),
        MemoryRequest(RequestKind.FREE, "classifier.loss", max(loss_bytes, 512)),
        MemoryRequest(RequestKind.FREE, "classifier.grad_hidden",
                      batch_size * sequence_length * model.hidden_size * precision.activation_bytes),
        MemoryRequest(RequestKind.FREE, "embedding.hidden_states",
                      max(batch_size * sequence_length * model.hidden_size * precision.activation_bytes, 512)),
    ]
    return requests


def full_model_trace(
    model: ModelConfig,
    batch_size: int,
    sequence_length: int,
    num_layers: Optional[int] = None,
    precision: PrecisionConfig = DEFAULT_PRECISION,
    include_skeletal: bool = True,
) -> Tuple[MemoryRequest, ...]:
    """Malloc/free trace of one full training iteration (Figure 8).

    Embedding forward, all layer forwards, classifier forward+backward and all
    layer backwards in reverse order.  The shape is validated, then memoized
    per process (:data:`PLAN_MEMO_SIZE` entries), so the trace is a shared tuple.
    """
    require_count("batch_size", batch_size, 1)
    require_count("sequence_length", sequence_length, 1)
    if num_layers is not None:
        require_count("num_layers", num_layers, 0)
    layers = model.num_layers if num_layers is None else num_layers
    return _full_model_trace(model, batch_size, sequence_length, layers, precision, bool(include_skeletal))


@functools.lru_cache(maxsize=PLAN_MEMO_SIZE)
def _full_model_trace(model, batch_size, sequence_length, layers, precision, include_skeletal):
    trace: List[MemoryRequest] = []
    trace.extend(embedding_trace(model, batch_size, sequence_length, precision))
    for layer in range(layers):
        trace.extend(
            layer_forward_trace(
                model, batch_size, sequence_length, layer, precision,
                include_skeletal=include_skeletal,
            )
        )
    trace.extend(classifier_trace(model, batch_size, sequence_length, precision))
    for layer in reversed(range(layers)):
        trace.extend(
            layer_backward_trace(
                model, batch_size, sequence_length, layer, precision,
                include_skeletal_frees=include_skeletal,
            )
        )
    return tuple(trace)
