"""Analytical per-layer cost model.

Maps FLOP and byte counts onto simulated wall-clock time for one GPU under a
given parallelism strategy.  The constants live in
:class:`repro.config.CalibrationConstants`; the formulas follow the paper's
FLOPs accounting (Section 5.1) and the standard Megatron communication-volume
analysis.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.config import CalibrationConstants, DEFAULT_CALIBRATION, DEFAULT_PRECISION, PrecisionConfig
from repro.hardware.cluster import ClusterSpec
from repro.model.activations import skeletal_bytes_per_layer
from repro.model.flops import (
    attention_forward_flops,
    dense_forward_flops,
    embedding_forward_flops,
)
from repro.model.specs import ModelConfig
from repro.parallel.strategy import ParallelismConfig


@dataclass(frozen=True)
class LayerCosts:
    """Per-GPU timing of one transformer layer under a strategy.

    Attributes:
        forward_compute_s: forward compute time (attention + dense + overhead).
        backward_compute_s: backward compute time.
        forward_attention_s: forward time of FlashAttention alone (Figure 6).
        forward_comm_s: non-overlappable forward communication (TP collectives,
            Ulysses all-to-all).
        backward_comm_s: non-overlappable backward communication.
        skeletal_bytes: per-GPU skeletal activation bytes of the layer.
        full_offload_s: time to offload all of the layer's skeletal bytes over
            PCIe (Figure 1(b) "Full Offload").
        recompute_s: time of one extra forward pass (used under full
            recomputation).
        partial_recompute_s: time to rematerialise the "other" skeletal tensors
            only (everything except the layer input and the FlashAttention
            output).  Reconstructing them needs the QKV projection, the
            attention output projection and the h->4h projection, but *not*
            FlashAttention itself and not the 4h->h projection -- which is why
            token-wise recomputation is cheap for long sequences (Section 4.1).
    """

    forward_compute_s: float
    backward_compute_s: float
    forward_attention_s: float
    forward_comm_s: float
    backward_comm_s: float
    skeletal_bytes: float
    full_offload_s: float
    recompute_s: float
    partial_recompute_s: float

    @property
    def forward_total_s(self) -> float:
        return self.forward_compute_s + self.forward_comm_s

    @property
    def backward_total_s(self) -> float:
        return self.backward_compute_s + self.backward_comm_s

    @property
    def backward_weight_share(self) -> float:
        """Fraction of the layer's backward that is grad-weight (W) work.

        The dgrad and wgrad GEMMs of each dense projection cost the same
        FLOPs, so the weight share of the dense backward is one half;
        FlashAttention's backward produces no weight gradients, and the
        non-overlapped backward communication belongs to the grad-input path
        (it moves activations/gradients, which wgrad reuses in place).  Used
        by zero-bubble schedules to split ``backward_s`` into B and W ops.
        """
        dense_forward = max(self.forward_compute_s - self.forward_attention_s, 0.0)
        if self.forward_compute_s <= 0 or self.backward_total_s <= 0:
            return 0.0
        dense_backward = self.backward_compute_s * dense_forward / self.forward_compute_s
        share = 0.5 * dense_backward / self.backward_total_s
        return min(max(share, 0.0), 0.5)


@dataclass(frozen=True)
class StageCostProfile:
    """Heterogeneous per-virtual-stage profile of a pipelined model.

    Captures what makes pipeline stages *unequal*: the first stage holds the
    token embedding, the last stage the classifier projection and the loss,
    and uneven layer partitioning assigns boundary stages fewer transformer
    layers to compensate.  :func:`repro.sim.pipeline.heterogeneous_stage_costs`
    converts the profile into per-stage :class:`~repro.sim.pipeline.StageCosts`.

    Attributes:
        layers_per_stage: transformer layers held by each virtual stage, in
            logical order (sums to the model's layer count).
        embedding_forward_s / embedding_backward_s: token-embedding
            lookup/scatter time charged to virtual stage 0.  The embedding
            backward is pure grad-weight work (nothing upstream consumes an
            input gradient), so split-backward schedules may defer all of it.
        classifier_forward_s / classifier_backward_s: vocabulary projection +
            loss time charged to the last virtual stage.
        backward_weight_fraction: grad-weight share of a transformer layer's
            backward (:attr:`LayerCosts.backward_weight_share`).
    """

    layers_per_stage: Tuple[int, ...]
    embedding_forward_s: float = 0.0
    embedding_backward_s: float = 0.0
    classifier_forward_s: float = 0.0
    classifier_backward_s: float = 0.0
    backward_weight_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not self.layers_per_stage:
            raise ValueError("layers_per_stage must not be empty")
        if any(count < 1 for count in self.layers_per_stage):
            raise ValueError("every stage needs at least one layer")
        for name in ("embedding_forward_s", "embedding_backward_s",
                     "classifier_forward_s", "classifier_backward_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.backward_weight_fraction <= 1.0:
            raise ValueError("backward_weight_fraction must lie in [0, 1]")

    @property
    def num_virtual_stages(self) -> int:
        return len(self.layers_per_stage)

    @property
    def total_layers(self) -> int:
        return sum(self.layers_per_stage)


def uneven_layer_partition(
    num_layers: int,
    num_stages: int,
    layer_time_s: float,
    embedding_time_s: float = 0.0,
    classifier_time_s: float = 0.0,
) -> Tuple[int, ...]:
    """Split ``num_layers`` over ``num_stages`` minimising the max stage time.

    Stage 0 carries ``embedding_time_s`` of extra work and the last stage
    ``classifier_time_s``; the greedy assignment hands each remaining layer to
    the currently lightest stage (ties to the lowest index), which for zero
    extras degenerates to the exact uniform split -- the property the
    heterogeneous cost path relies on to reproduce the legacy uniform results.

    Every stage keeps at least one layer, so a huge classifier can shrink the
    last stage to a single transformer layer but never to zero.
    """
    if num_layers < num_stages:
        raise ValueError(
            f"cannot spread {num_layers} layers over {num_stages} stages"
        )
    if num_stages < 1:
        raise ValueError("num_stages must be >= 1")
    if layer_time_s < 0 or embedding_time_s < 0 or classifier_time_s < 0:
        raise ValueError("stage times must be non-negative")
    counts = [1] * num_stages
    extras = [0.0] * num_stages
    extras[0] += embedding_time_s
    extras[-1] += classifier_time_s
    for _ in range(num_layers - num_stages):
        loads = [counts[s] * layer_time_s + extras[s] for s in range(num_stages)]
        lightest = min(range(num_stages), key=lambda s: (loads[s], s))
        counts[lightest] += 1
    return tuple(counts)


#: Process-wide stage-profile store shared by every :class:`CostModel`
#: instance.  The per-instance ``_stage_profile_cache`` dies with its model
#: (one model per strategy candidate), so the auto sweep recomputed identical
#: partitions across candidates and -- worse -- across fleet-planner runs.
#: The store keys on the *full* cost-model identity plus the profile
#: arguments, so two models with equal fields share one profile; entries are
#: pure functions of their key, which is what makes priming the store from a
#: persisted cache answer-preserving.  LRU-bounded like the fast-path caches.
_STAGE_PROFILE_STORE: "OrderedDict[tuple, StageCostProfile]" = OrderedDict()
_STAGE_PROFILE_STORE_MAXSIZE = 8192
_stage_profile_hits = 0
_stage_profile_misses = 0


def _stage_profile_store_get(key: tuple) -> Optional[StageCostProfile]:
    global _stage_profile_hits, _stage_profile_misses
    profile = _STAGE_PROFILE_STORE.get(key)
    if profile is None:
        _stage_profile_misses += 1
        return None
    _STAGE_PROFILE_STORE.move_to_end(key)
    _stage_profile_hits += 1
    return profile


def _stage_profile_store_put(key: tuple, profile: StageCostProfile) -> None:
    _STAGE_PROFILE_STORE[key] = profile
    if len(_STAGE_PROFILE_STORE) > _STAGE_PROFILE_STORE_MAXSIZE:
        _STAGE_PROFILE_STORE.popitem(last=False)


def stage_profile_store_info() -> Tuple[int, int, int]:
    """``(hits, misses, currsize)`` of the shared stage-profile store."""
    return (_stage_profile_hits, _stage_profile_misses, len(_STAGE_PROFILE_STORE))


def stage_profile_store_entries() -> Dict[tuple, StageCostProfile]:
    """A shallow copy of the shared store (for cache persistence)."""
    return dict(_STAGE_PROFILE_STORE)


def prime_stage_profile_store(entries: Dict[tuple, StageCostProfile]) -> int:
    """Inject precomputed profiles; counters untouched, existing keys win."""
    primed = 0
    for key, profile in entries.items():
        if key in _STAGE_PROFILE_STORE:
            continue
        _stage_profile_store_put(key, profile)
        primed += 1
    return primed


def clear_stage_profile_store() -> None:
    """Drop the shared store and reset its counters (tests, benches)."""
    global _stage_profile_hits, _stage_profile_misses
    _STAGE_PROFILE_STORE.clear()
    _stage_profile_hits = 0
    _stage_profile_misses = 0


@dataclass
class CostModel:
    """Computes per-layer and per-iteration costs for one GPU.

    Args:
        model: model architecture.
        cluster: hardware description (GPU, links, host memory).
        parallel: parallelism strategy in effect.
        batch_size: micro-batch size per model replica (the paper uses 1
            sequence per iteration for long-context workloads).
        calibration: constants mapping analytical counts to seconds.
        precision: numeric formats.
    """

    model: ModelConfig
    cluster: ClusterSpec
    parallel: ParallelismConfig
    batch_size: int = 1
    calibration: CalibrationConstants = DEFAULT_CALIBRATION
    precision: PrecisionConfig = DEFAULT_PRECISION
    #: Memoized stage profiles: the auto schedule sweep asks for the same
    #: (sequence_length, num_virtual_stages) partition once per candidate.
    _stage_profile_cache: Dict[tuple, StageCostProfile] = field(
        default_factory=dict, repr=False, compare=False,
    )

    # ------------------------------------------------------------------ helpers
    def _matmul_time(self, flops: float) -> float:
        peak = self.cluster.gpu.peak_half_precision_flops
        return flops / (peak * self.calibration.matmul_efficiency)

    def _attention_time(self, flops: float) -> float:
        peak = self.cluster.gpu.peak_half_precision_flops
        return flops / (peak * self.calibration.attention_efficiency)

    def _collective_bandwidth(self, group_size: int) -> float:
        """Effective per-GPU bandwidth of a collective over ``group_size`` GPUs.

        Intra-node groups use NVLink.  Groups spanning nodes are limited by the
        node's InfiniBand uplink, which is shared by all GPUs of the node, so
        the per-GPU share is the link bandwidth divided by the GPUs per node --
        this is what makes inter-node tensor parallelism so expensive
        (the paper's 65B Megatron-LM configurations).
        """
        if group_size <= 1:
            return float("inf")
        if self.cluster.intra_node_group(group_size):
            link = self.cluster.node.nvlink
            return link.bandwidth_bytes_per_s * self.calibration.nvlink_efficiency
        link = self.cluster.interconnect
        per_gpu_share = link.bandwidth_bytes_per_s / self.cluster.node.gpus_per_node
        return per_gpu_share * self.calibration.ib_efficiency

    def _pcie_bandwidth(self) -> float:
        return self.cluster.node.pcie.bandwidth_bytes_per_s * self.calibration.pcie_efficiency

    # -------------------------------------------------------------- layer costs
    def layer_costs(self, sequence_length: int) -> LayerCosts:
        """Compute the cost of one transformer layer for a global sequence length."""
        if sequence_length <= 0:
            raise ValueError("sequence_length must be positive")
        shards = self.parallel.model_parallel_size
        attn_flops = attention_forward_flops(self.model, sequence_length, self.batch_size) / shards
        dense_flops = dense_forward_flops(self.model, sequence_length, self.batch_size) / shards

        forward_attention = self._attention_time(attn_flops)
        forward_dense = self._matmul_time(dense_flops)
        forward_compute = forward_attention + forward_dense + self.calibration.small_op_overhead_s
        backward_compute = forward_compute * self.calibration.backward_compute_factor

        forward_comm, backward_comm = self._layer_comm_times(sequence_length)

        local_tokens = self.parallel.local_sequence_length(sequence_length)
        skeletal = skeletal_bytes_per_layer(
            self.model, self.batch_size, local_tokens, self.precision
        ) / self.parallel.tensor_parallel
        full_offload = skeletal / self._pcie_bandwidth()

        # Rebuilding the "other" skeletal tensors from the (offloaded) layer
        # input needs the QKV projection (3 h^2), the attention output dense
        # (h^2) and the h->4h projection (4 h^2) -- 8 of the 12 h^2 GEMM
        # blocks -- plus the cheap norms/GeLU, but no FlashAttention.
        dense_params = (
            self.model.attention_parameters_per_layer + self.model.ffn_parameters_per_layer
        )
        partial_fraction = (
            8.0 * self.model.hidden_size * self.model.hidden_size / dense_params
        )
        partial_recompute = (
            forward_dense * partial_fraction + 0.5 * self.calibration.small_op_overhead_s
        )

        return LayerCosts(
            forward_compute_s=forward_compute,
            backward_compute_s=backward_compute,
            forward_attention_s=forward_attention,
            forward_comm_s=forward_comm,
            backward_comm_s=backward_comm,
            skeletal_bytes=skeletal,
            full_offload_s=full_offload,
            recompute_s=forward_compute,
            partial_recompute_s=partial_recompute,
        )

    def _layer_comm_times(self, sequence_length: int) -> tuple:
        """Non-overlapped communication time of one layer (forward, backward)."""
        local_tokens = self.parallel.local_sequence_length(sequence_length)
        activation_bytes = (
            self.batch_size * local_tokens * self.model.hidden_size * self.precision.activation_bytes
        )
        forward = 0.0
        backward = 0.0

        tp = self.parallel.tensor_parallel
        if tp > 1:
            bandwidth = self._collective_bandwidth(tp)
            # Megatron TP+SP: two all-gathers and two reduce-scatters per layer
            # in each direction; each moves (tp-1)/tp of the activation.
            volume = 4.0 * activation_bytes * (tp - 1) / tp
            forward += volume / bandwidth
            backward += volume / bandwidth

        ulysses = self.parallel.ulysses_parallel
        if ulysses > 1:
            bandwidth = self._collective_bandwidth(ulysses * tp)
            # Four all-to-alls (q, k, v, o); each rank exchanges
            # (ulysses-1)/ulysses of its local activation shard.
            volume = 4.0 * activation_bytes * (ulysses - 1) / ulysses
            forward += volume / bandwidth
            backward += volume / bandwidth

        cp = self.parallel.context_parallel
        if cp > 1:
            bandwidth = self._collective_bandwidth(cp * tp)
            # Ring attention exchanges K and V blocks; most of it overlaps with
            # attention compute, so only a residual fraction is charged.
            volume = 2.0 * activation_bytes * (cp - 1) / cp / self.parallel.tensor_parallel
            forward += 0.25 * volume / bandwidth
            backward += 0.5 * volume / bandwidth
        return forward, backward

    # ------------------------------------------------------------ other layers
    def embedding_classifier_time(self, sequence_length: int) -> float:
        """Forward + backward time of the embedding and classifier layers."""
        shards = self.parallel.model_parallel_size
        flops = embedding_forward_flops(self.model, sequence_length, self.batch_size) / shards
        return 3.0 * self._matmul_time(flops)

    def classifier_forward_time(self, sequence_length: int) -> float:
        """Forward time of the vocabulary projection (the last stage's extra)."""
        shards = self.parallel.model_parallel_size
        flops = embedding_forward_flops(self.model, sequence_length, self.batch_size) / shards
        return self._matmul_time(flops)

    def classifier_backward_time(self, sequence_length: int) -> float:
        """Backward time of the vocabulary projection (dgrad + wgrad GEMMs)."""
        return 2.0 * self.classifier_forward_time(sequence_length)

    def embedding_forward_time(self, sequence_length: int) -> float:
        """Token-embedding lookup time (the first stage's extra).

        The lookup is a gather, HBM-bandwidth bound: it reads one table row
        and writes one hidden vector per local token.
        """
        local_tokens = self.parallel.local_sequence_length(sequence_length)
        moved = (
            2.0 * self.batch_size * local_tokens * self.model.hidden_size
            * self.precision.activation_bytes
        )
        return moved / self.cluster.gpu.memory_bandwidth_bytes_per_s

    def embedding_backward_time(self, sequence_length: int) -> float:
        """Embedding-table scatter-add time; pure grad-weight work."""
        return 2.0 * self.embedding_forward_time(sequence_length)

    def stage_cost_profile(
        self,
        sequence_length: int,
        num_virtual_stages: int,
        layer_costs: Optional[LayerCosts] = None,
    ) -> StageCostProfile:
        """Heterogeneous per-stage profile for a pipeline of this strategy.

        The layer partition is uneven: stage 0 is docked layers for the
        embedding lookup, the last stage for the classifier projection and
        loss, balancing per-stage forward+backward time
        (:func:`uneven_layer_partition`).  With one virtual stage the profile
        degenerates to the whole model plus both boundary extras.

        The profile is placement-agnostic: virtual stages are in logical
        layer order, so a chunked schedule asks for ``p * v`` stages and maps
        them to ranks itself -- under ZB-V's V placement the embedding stage
        (vs 0) and the classifier stage (vs ``2p - 1``) both land on rank 0,
        whose boundary-heavy chunks the uneven partition correspondingly
        docks layers from.
        """
        if num_virtual_stages < 1:
            raise ValueError("num_virtual_stages must be >= 1")
        cache_key = (sequence_length, num_virtual_stages, layer_costs)
        cached = self._stage_profile_cache.get(cache_key)
        if cached is not None:
            return cached
        # Fall back to the process-wide store: the profile is a pure function
        # of the cost-model identity plus the arguments, so a hit -- whether
        # computed by a sibling model or primed from a persisted fleet cache
        # -- is bit-identical to what this model would compute.
        store_key = (
            self.model, self.cluster, self.parallel, self.batch_size,
            self.calibration, self.precision,
            sequence_length, num_virtual_stages, layer_costs,
        )
        shared = _stage_profile_store_get(store_key)
        if shared is not None:
            self._stage_profile_cache[cache_key] = shared
            return shared
        costs = layer_costs if layer_costs is not None else self.layer_costs(sequence_length)
        layer_time = costs.forward_total_s + costs.backward_total_s
        embedding = (
            self.embedding_forward_time(sequence_length)
            + self.embedding_backward_time(sequence_length)
        )
        classifier = (
            self.classifier_forward_time(sequence_length)
            + self.classifier_backward_time(sequence_length)
        )
        if num_virtual_stages == 1:
            partition: Tuple[int, ...] = (self.model.num_layers,)
        else:
            partition = uneven_layer_partition(
                self.model.num_layers, num_virtual_stages, layer_time,
                embedding_time_s=embedding, classifier_time_s=classifier,
            )
        profile = StageCostProfile(
            layers_per_stage=partition,
            embedding_forward_s=self.embedding_forward_time(sequence_length),
            embedding_backward_s=self.embedding_backward_time(sequence_length),
            classifier_forward_s=self.classifier_forward_time(sequence_length),
            classifier_backward_s=self.classifier_backward_time(sequence_length),
            backward_weight_fraction=costs.backward_weight_share,
        )
        self._stage_profile_cache[cache_key] = profile
        _stage_profile_store_put(store_key, profile)
        return profile

    def optimizer_step_time(self, parameters_per_gpu: float) -> float:
        """Time of the Adam update over this GPU's parameter shard."""
        flops = parameters_per_gpu * self.calibration.optimizer_step_flops_per_param
        # The optimizer is memory-bandwidth bound: charge the larger of the
        # FLOP time and the HBM traffic time (read params/grads/moments, write back).
        bytes_moved = parameters_per_gpu * (
            self.precision.model_state_bytes_per_param + self.precision.master_parameter_bytes
        )
        hbm_time = bytes_moved / self.cluster.gpu.memory_bandwidth_bytes_per_s
        flop_time = flops / self.cluster.gpu.peak_half_precision_flops
        return max(hbm_time, flop_time)

    def gradient_sync_time(self, parameters_per_gpu: float) -> float:
        """Per-iteration gradient synchronisation.

        Gradients are averaged across every rank that holds the same
        parameters: the DP group together with the CP and Ulysses ranks.
        """
        group = (
            self.parallel.data_parallel
            * self.parallel.context_parallel
            * self.parallel.ulysses_parallel
        )
        if group <= 1:
            return 0.0
        bandwidth = self._collective_bandwidth(group * self.parallel.tensor_parallel)
        volume = 2.0 * parameters_per_gpu * self.precision.gradient_bytes * (group - 1) / group
        return volume / bandwidth

    def zero3_gather_time(self, parameters_per_gpu: float) -> float:
        """Extra per-iteration parameter all-gather traffic under ZeRO-3.

        The sharding group includes the Ulysses sequence-parallel ranks (they
        hold identical parameters), so the gathered volume grows with both the
        DP and the Ulysses degrees.
        """
        group = self.parallel.data_parallel * self.parallel.ulysses_parallel
        if group <= 1 or self.parallel.zero_stage < 3:
            return 0.0
        bandwidth = self._collective_bandwidth(group * self.parallel.tensor_parallel)
        # Parameters are gathered for the forward pass and again for backward;
        # each rank receives the (group-1)/group share it does not own.
        volume = 2.0 * parameters_per_gpu * self.precision.parameter_bytes * (group - 1) / group
        return volume / bandwidth

    def pipeline_p2p_time(self, num_bytes: float) -> float:
        """Transfer time of one inter-stage activation/gradient hand-off.

        Adjacent pipeline stages exchange point-to-point messages; the link is
        NVLink when the whole model-parallel x pipeline group fits in one node
        and the per-GPU InfiniBand share otherwise.
        """
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if self.parallel.pipeline_parallel <= 1 or num_bytes == 0:
            return 0.0
        span = self.parallel.model_parallel_size * self.parallel.pipeline_parallel
        bandwidth = self._collective_bandwidth(span)
        return num_bytes / bandwidth

    def pcie_offload_time(self, num_bytes: float) -> float:
        """D2H or H2D transfer time of ``num_bytes`` at effective PCIe bandwidth."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        return num_bytes / self._pcie_bandwidth()
