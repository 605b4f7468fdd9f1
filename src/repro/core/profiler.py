"""The job profiler (Section 4.3.2).

Before training, MEMO runs one profiling iteration to collect (a) the memory
request sequence directed at the allocator and (b) the timing and tensor-size
information needed to choose the offload fraction alpha.  In this reproduction
the "profiled" quantities come from the activation catalogue and the analytical
cost model (the simulator's ground truth), packaged exactly the way the
planner and the runtime expect them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.config import DEFAULT_CALIBRATION, DEFAULT_PRECISION, CalibrationConstants, PrecisionConfig
from repro.hardware.cluster import ClusterSpec
from repro.memory.request import MemoryRequest
from repro.model.activations import skeletal_breakdown_bytes
from repro.model.specs import ModelConfig
from repro.model.trace import layer_backward_trace, layer_forward_trace
from repro.parallel.strategy import ParallelismConfig
from repro.sim.costs import CostModel, LayerCosts
from repro.swap.alpha import AlphaProblem


@dataclass(frozen=True)
class JobProfile:
    """Everything the planner and the alpha solver need about one job.

    Attributes:
        layer_forward_requests / layer_backward_requests: the transient-only
            memory request sequence of one transformer layer (the level-1 DSA
            input).
        layer_costs: analytical timing of one layer.
        skeletal_input_bytes / skeletal_attn_bytes / skeletal_other_bytes:
            per-layer sizes of the three skeletal categories (per GPU).
        local_sequence_length: tokens per GPU after sequence sharding.
        layers_per_stage: transformer layers on this pipeline stage.
        host_budget_bytes: per-GPU host memory budget.
        pcie_bandwidth_bytes_per_s: effective GPU<->CPU bandwidth.
    """

    layer_forward_requests: Tuple[MemoryRequest, ...]
    layer_backward_requests: Tuple[MemoryRequest, ...]
    layer_costs: LayerCosts
    skeletal_input_bytes: float
    skeletal_attn_bytes: float
    skeletal_other_bytes: float
    local_sequence_length: int
    layers_per_stage: int
    host_budget_bytes: float
    pcie_bandwidth_bytes_per_s: float

    def alpha_problem(self) -> AlphaProblem:
        """Package the profile as the offload-fraction LP of Section 4.1."""
        return AlphaProblem(
            input_bytes=self.skeletal_input_bytes,
            attn_output_bytes=self.skeletal_attn_bytes,
            other_bytes=self.skeletal_other_bytes,
            pcie_bandwidth_bytes_per_s=self.pcie_bandwidth_bytes_per_s,
            layer_forward_time_s=self.layer_costs.forward_total_s,
            num_layers=self.layers_per_stage,
            cpu_memory_bytes=self.host_budget_bytes,
        )


@dataclass
class JobProfiler:
    """Collects a :class:`JobProfile` for a model / cluster / strategy triple."""

    model: ModelConfig
    cluster: ClusterSpec
    parallel: ParallelismConfig
    batch_size: int = 1
    precision: PrecisionConfig = DEFAULT_PRECISION
    calibration: CalibrationConstants = DEFAULT_CALIBRATION
    pcie_contention_factor: float = 0.36
    _cost_model: CostModel = field(init=False)

    def __post_init__(self) -> None:
        self._cost_model = CostModel(
            model=self.model,
            cluster=self.cluster,
            parallel=self.parallel,
            batch_size=self.batch_size,
            calibration=self.calibration,
            precision=self.precision,
        )

    def profile(self, sequence_length: int) -> JobProfile:
        """Run the (simulated) profiling iteration for a global sequence length.

        Only one transformer layer is profiled: all layers issue identical
        request sequences, which is the property the bi-level planner exploits
        (and the trick the paper uses to keep profiling within memory).
        """
        if sequence_length <= 0:
            raise ValueError("sequence_length must be positive")
        local_tokens = self.parallel.local_sequence_length(sequence_length)
        tp = self.parallel.tensor_parallel

        forward_requests = tuple(layer_forward_trace(
            self.model, self.batch_size, local_tokens, layer_index=0,
            precision=self.precision, include_skeletal=False,
        ))
        backward_requests = tuple(layer_backward_trace(
            self.model, self.batch_size, local_tokens, layer_index=0,
            precision=self.precision, include_skeletal_frees=False,
        ))
        layer_costs = self._cost_model.layer_costs(sequence_length)
        breakdown = skeletal_breakdown_bytes(self.model, self.batch_size, local_tokens, self.precision)
        pcie_bandwidth = (
            self.cluster.node.pcie.bandwidth_bytes_per_s
            * self.calibration.pcie_efficiency
            * self.pcie_contention_factor
        )
        return JobProfile(
            layer_forward_requests=forward_requests,
            layer_backward_requests=backward_requests,
            layer_costs=layer_costs,
            skeletal_input_bytes=breakdown["input"] / tp,
            skeletal_attn_bytes=breakdown["attn"] / tp,
            skeletal_other_bytes=breakdown["others"] / tp,
            local_sequence_length=local_tokens,
            layers_per_stage=self.parallel.layers_per_stage(self.model),
            host_budget_bytes=self.cluster.node.cpu_memory_per_gpu_bytes,
            pcie_bandwidth_bytes_per_s=pcie_bandwidth,
        )
