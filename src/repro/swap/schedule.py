"""Per-layer swap/recompute schedules consumed by the runtime simulator.

A :class:`SwapSchedule` records, for every transformer layer, how many bytes
are offloaded during the forward pass, how many are prefetched before the
backward pass, how many must be recomputed, and which rounding buffer the
layer uses.  It is built from the skeletal-tensor catalogue, an alpha value
(either supplied or solved by the LP) and the host-memory budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.config import DEFAULT_PRECISION, PrecisionConfig
from repro.model.activations import skeletal_breakdown_bytes
from repro.model.specs import ModelConfig
from repro.swap.alpha import AlphaProblem, AlphaSolution, solve_alpha
from repro.swap.buffers import RoundingBuffers
from repro.swap.host_memory import HostMemoryBudget, HostOutOfMemoryError


@dataclass(frozen=True)
class LayerSwapPlan:
    """Swap/recompute decisions for one transformer layer.

    Attributes:
        layer_index: which layer this plan is for.
        buffer_index: rounding buffer used during the forward pass.
        offload_bytes: bytes copied GPU -> CPU after the layer's forward pass.
        prefetch_bytes: bytes copied CPU -> GPU before the layer's backward
            pass (equal to ``offload_bytes``).
        recompute_bytes: skeletal bytes that are rematerialised by
            recomputation instead of swapping.
        resident_bytes: skeletal bytes that simply stay on the GPU (the last
            two layers skip swapping entirely).
    """

    layer_index: int
    buffer_index: int
    offload_bytes: float
    prefetch_bytes: float
    recompute_bytes: float
    resident_bytes: float

    @property
    def skeletal_bytes(self) -> float:
        """Total skeletal bytes of the layer, however they are materialised."""
        return self.offload_bytes + self.recompute_bytes + self.resident_bytes


@dataclass(frozen=True)
class SwapSchedule:
    """Swap/recompute schedule for all layers of one pipeline stage."""

    layers: Tuple[LayerSwapPlan, ...]
    alpha: float
    alpha_solution: Optional[AlphaSolution]
    buffers: RoundingBuffers
    host_bytes_used: float
    host_capacity_bytes: float
    feasible: bool
    #: Per-layer size of the skeletal tensors subject to token-wise management
    #: (everything except the layer input and the FlashAttention output); used
    #: to convert a layer's recompute bytes into a recompute-time fraction.
    others_bytes_per_layer: float = 0.0

    def recompute_fraction(self, layer_index: int) -> float:
        """Fraction of the "other" tensors that layer must recompute."""
        if self.others_bytes_per_layer <= 0:
            return 0.0
        return self.layers[layer_index].recompute_bytes / self.others_bytes_per_layer

    @property
    def total_offload_bytes(self) -> float:
        return sum(layer.offload_bytes for layer in self.layers)

    @property
    def total_recompute_bytes(self) -> float:
        return sum(layer.recompute_bytes for layer in self.layers)

    @property
    def num_layers(self) -> int:
        return len(self.layers)


def build_swap_schedule(
    model: ModelConfig,
    batch_size: int,
    sequence_length: int,
    layer_forward_time_s: float,
    pcie_bandwidth_bytes_per_s: float,
    host_capacity_bytes: float,
    num_layers: Optional[int] = None,
    alpha: Optional[float] = None,
    offload_input: bool = True,
    offload_attention_output: bool = True,
    tensor_shards: int = 1,
    precision: PrecisionConfig = DEFAULT_PRECISION,
) -> SwapSchedule:
    """Build the token-wise swap/recompute schedule for one pipeline stage.

    Args:
        model / batch_size / sequence_length: per-device activation shape
            (``sequence_length`` is the sequence-sharded local length).
        layer_forward_time_s: profiled forward time of one transformer layer
            (used only when ``alpha`` must be solved).
        pcie_bandwidth_bytes_per_s: effective GPU->CPU bandwidth.
        host_capacity_bytes: per-GPU host-memory budget.
        num_layers: layers on this stage; defaults to the model's layer count.
        alpha: when given, use this offload fraction instead of solving the LP
            (Table 5 sweeps alpha explicitly).
        offload_input / offload_attention_output: the tensor-level decisions;
            both default to True as in the paper.
        tensor_shards: additional sharding of the activation tensors on this
            GPU (the tensor-parallel degree when sequence parallelism is on).
    """
    layers = model.num_layers if num_layers is None else num_layers
    if layers <= 0:
        raise ValueError("num_layers must be positive")
    if tensor_shards < 1:
        raise ValueError("tensor_shards must be >= 1")
    breakdown = skeletal_breakdown_bytes(model, batch_size, sequence_length, precision)
    breakdown = {name: size / tensor_shards for name, size in breakdown.items()}
    input_bytes = breakdown["input"] if offload_input else 0.0
    attn_bytes = breakdown["attn"] if offload_attention_output else 0.0
    other_bytes = breakdown["others"]
    if not offload_input:
        other_bytes += breakdown["input"]
    if not offload_attention_output:
        other_bytes += breakdown["attn"]

    problem = AlphaProblem(
        input_bytes=input_bytes,
        attn_output_bytes=attn_bytes,
        other_bytes=other_bytes,
        pcie_bandwidth_bytes_per_s=pcie_bandwidth_bytes_per_s,
        layer_forward_time_s=layer_forward_time_s,
        num_layers=layers,
        cpu_memory_bytes=host_capacity_bytes,
    )
    solution: Optional[AlphaSolution] = None
    if alpha is None:
        solution = solve_alpha(problem)
        alpha_value = solution.alpha
        feasible = solution.feasible
    else:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        alpha_value = alpha
        feasible = True

    per_layer_skeletal = breakdown["input"] + breakdown["attn"] + breakdown["others"]
    buffers = RoundingBuffers(buffer_bytes=int(per_layer_skeletal))

    budget = HostMemoryBudget(capacity_bytes=host_capacity_bytes)
    plans: List[LayerSwapPlan] = []
    swapping_layers = max(layers - 2, 0)
    for layer_index in range(layers):
        assignment = buffers.assignment(layer_index)
        if layer_index >= swapping_layers:
            # Final two layers: backward starts immediately; keep everything resident.
            plans.append(
                LayerSwapPlan(
                    layer_index=layer_index,
                    buffer_index=assignment.buffer_index,
                    offload_bytes=0.0,
                    prefetch_bytes=0.0,
                    recompute_bytes=0.0,
                    resident_bytes=per_layer_skeletal,
                )
            )
            continue
        offload = input_bytes + attn_bytes + alpha_value * other_bytes
        recompute = (1.0 - alpha_value) * other_bytes
        if not offload_input:
            recompute += 0.0  # the input is then kept resident, handled below
        resident = per_layer_skeletal - offload - recompute
        try:
            budget.offload(layer_index, offload)
        except HostOutOfMemoryError:
            feasible = False
        plans.append(
            LayerSwapPlan(
                layer_index=layer_index,
                buffer_index=assignment.buffer_index,
                offload_bytes=offload,
                prefetch_bytes=offload,
                recompute_bytes=recompute,
                resident_bytes=max(resident, 0.0),
            )
        )
    return SwapSchedule(
        layers=tuple(plans),
        alpha=alpha_value,
        alpha_solution=solution,
        buffers=buffers,
        host_bytes_used=budget.used_bytes,
        host_capacity_bytes=host_capacity_bytes,
        feasible=feasible,
        others_bytes_per_layer=other_bytes,
    )
