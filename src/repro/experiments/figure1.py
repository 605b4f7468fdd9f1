"""Figure 1: memory fragmentation and the swapping opportunity.

* Figure 1(a): allocated vs reserved GPU memory while replaying the memory
  trace of one training iteration through the PyTorch-style caching allocator,
  showing the reserved-but-unallocated gap and the reorganisations it forces.
  The same trace replayed through the plan-driven allocator shows a flat
  reserved line and no reorganisations.
* Figure 1(b): forward time of FlashAttention, forward time of a whole
  transformer layer and the time to offload one layer's full skeletal
  activations, as functions of the sequence length (7B model, 8 GPUs, TP=8).
  The crossing point is where swapping becomes free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import GiB, tokens
from repro.hardware.cluster import make_a800_cluster
from repro.memory.caching_allocator import CachingAllocator, OutOfMemoryError
from repro.memory.snapshot import MemoryTimeline
from repro.model.specs import get_model_config
from repro.model.trace import full_model_trace
from repro.parallel.strategy import ParallelismConfig
from repro.planner.dsa import problem_from_trace
from repro.planner.heuristics import solve_heuristic
from repro.experiments.report import Series
from repro.sim.costs import CostModel
from repro.systems.base import PCIE_CONTENTION_FACTOR


@dataclass
class Figure1aResult:
    """Outcome of the fragmentation experiment."""

    timeline: MemoryTimeline
    peak_allocated_gib: float
    peak_reserved_gib: float
    fragmentation_under_load_gib: float
    num_reorganizations: int
    oom: bool
    planned_peak_gib: float

    @property
    def fragmentation_exceeds_4gib(self) -> bool:
        """The paper's headline observation: >4 GiB reserved-but-unallocated."""
        return self.fragmentation_under_load_gib > 4.0

    @property
    def shows_allocator_pathology(self) -> bool:
        """Whether the replay exhibited reorganisations or an OOM failure."""
        return self.oom or self.num_reorganizations > 0


def run_figure1a(
    model_name: str = "7B",
    per_gpu_tokens: int = 16 * 1024,
    num_layers: Optional[int] = 32,
    capacity_gib: float = 72.0,
    num_iterations: int = 6,
    length_jitter: float = 0.08,
) -> Figure1aResult:
    """Replay several iterations' memory traces through the caching allocator.

    ``per_gpu_tokens`` is the effective per-GPU request scale: the paper's
    512K-token workload shards the sequence 8 ways across GPUs and the hidden
    dimension 4 ways inside each layer, so the request sizes seen by one GPU's
    allocator match an unsharded trace of roughly 512K / 32 = 16K tokens.

    Successive iterations use slightly different sequence lengths (real
    training batches are not perfectly uniform), which is what makes cached
    blocks mismatch later requests and lets fragmentation accumulate -- the
    behaviour of Figure 1(a).
    """
    if num_iterations <= 0:
        raise ValueError("num_iterations must be positive")
    model = get_model_config(model_name)
    allocator = CachingAllocator(capacity_bytes=int(capacity_gib * GiB))
    oom = False
    planned_peak = 0
    for iteration in range(num_iterations):
        # Deterministic +/- jitter around the nominal length, 256-token aligned.
        wobble = 1.0 + length_jitter * ((-1) ** iteration) * (1.0 - iteration / (2.0 * num_iterations))
        length = max(256, int(per_gpu_tokens * wobble) // 256 * 256)
        trace = full_model_trace(
            model, batch_size=1, sequence_length=length, num_layers=num_layers,
            include_skeletal=True,
        )
        planned_peak = max(planned_peak, solve_heuristic(problem_from_trace(trace)).peak_bytes)
        try:
            allocator.replay(trace)
        except OutOfMemoryError:
            oom = True
            break

    loaded_points = [
        point for point in allocator.timeline.points
        if point.allocated_bytes >= 0.5 * allocator.stats.peak_allocated_bytes
    ]
    fragmentation_under_load = max(
        (point.fragmentation_bytes for point in loaded_points), default=0
    )
    return Figure1aResult(
        timeline=allocator.timeline,
        peak_allocated_gib=allocator.stats.peak_allocated_bytes / GiB,
        peak_reserved_gib=allocator.stats.peak_reserved_bytes / GiB,
        fragmentation_under_load_gib=fragmentation_under_load / GiB,
        num_reorganizations=allocator.stats.num_reorganizations,
        oom=oom,
        planned_peak_gib=planned_peak / GiB,
    )


def run_figure1b(
    model_name: str = "7B",
    num_gpus: int = 8,
    tensor_parallel: int = 8,
    sequence_lengths_k: Optional[List[int]] = None,
) -> Dict[str, Series]:
    """FlashAttention / layer forward / full offload times vs sequence length."""
    if sequence_lengths_k is None:
        sequence_lengths_k = [64, 128, 192, 256, 320]
    model = get_model_config(model_name)
    cluster = make_a800_cluster(num_gpus)
    parallel = ParallelismConfig(tensor_parallel=tensor_parallel)
    cost_model = CostModel(model=model, cluster=cluster, parallel=parallel)

    attention = Series("FlashAttention")
    layer_forward = Series("Layer Forward")
    full_offload = Series("Full Offload")
    pcie = (
        cluster.node.pcie.bandwidth_bytes_per_s
        * cost_model.calibration.pcie_efficiency
        * PCIE_CONTENTION_FACTOR
    )
    for kilotokens in sequence_lengths_k:
        sequence = tokens(kilotokens)
        costs = cost_model.layer_costs(sequence)
        attention.add(kilotokens, costs.forward_attention_s)
        layer_forward.add(kilotokens, costs.forward_total_s)
        full_offload.add(kilotokens, costs.skeletal_bytes / pcie)
    return {
        "flash_attention": attention,
        "layer_forward": layer_forward,
        "full_offload": full_offload,
    }


def crossover_sequence_length_k(curves: Dict[str, Series]) -> Optional[int]:
    """First sequence length at which the layer forward time covers a full offload."""
    layer = curves["layer_forward"]
    offload = curves["full_offload"]
    for index in range(len(layer)):
        if layer.y[index] >= offload.y[index]:
            return int(layer.x[index])
    return None
