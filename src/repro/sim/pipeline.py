"""Event-driven execution of pipeline-parallel schedules.

Lowers a :class:`repro.sim.schedules.PipelineSchedule` onto the discrete-event
:class:`repro.sim.engine.SimulationEngine`: every rank owns a compute, a D2H
and an H2D :class:`~repro.sim.streams.Stream`, ranks execute their op lists in
schedule order, and inter-stage activation/gradient hand-offs become P2P
transfer events whose completion unblocks the neighbouring rank.  The rank a
hand-off targets comes from the schedule's placement map
(:attr:`~repro.sim.schedules.PipelineSchedule.virtual_stage_ranks`): block
layouts route ``vs % p``, the ZB-V placement folds the wave back through the
same ranks.

Execution invariants:

* ranks are strictly in-order -- an op never starts before every earlier op
  of its rank has been *submitted* to a stream, which is what makes the
  simulated schedule the schedule and not a greedy relaxation of it;
* under split-backward schedules the grad-input op carries the recompute
  stall, frees the activations, and is the only backward op on the
  inter-stage gradient path; grad-weight ops are rank-local fillers whose
  durations satisfy ``input + weight == backward_s`` by construction;
* the "simulated bubble" (:attr:`PipelineTimeline.bubble_fraction`) measures
  the fraction of ``num_ranks * total_s`` during which compute streams sat
  idle -- it includes P2P transfer waits and swap stalls, which the analytic
  ``(p - 1) / (v m + p - 1)`` bound does not;
* per-rank peak activation memory is the schedule-order walk over
  forwards (+), activation-freeing backwards (-) and, for zero-bubble
  schedules, weight-grad stashes pinned between a grad-input op and its
  deferred grad-weight op.

Per-stage peak-memory accounting composes with the rest of the system the way
MEMO's memory model does: the in-flight micro-batch count multiplies the
per-micro-batch state a stage must pin between a micro-batch's forward and
backward -- its skeletal activations, or for swapped systems its resident
(rounding-buffer-sized) share -- while the bi-level planner's transient peak
(``BiLevelPlanResult.total_peak_bytes``) is re-planned into the same
addresses for every micro-batch and is charged once.  Fold the per-micro-batch
resident share into :attr:`StageCosts.activation_bytes`; the
``rounding_buffer_bytes`` argument of :func:`stage_peak_memory` is for
transfer-staging buffers that are drained and reused between micro-batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.sim.costs import StageCostProfile
from repro.sim.engine import SimulationEngine
from repro.sim.executor import IterationTimeline
from repro.sim.schedules import OpKind, PipelineSchedule, StageOp
from repro.sim.streams import Stream, StreamKind

#: Share of a micro-batch's per-stage skeletal activation bytes a deferred
#: grad-weight op keeps stashed between its grad-input op and itself: wgrad
#: GEMMs need the linear-layer *inputs* (layer input, attention output, FFN
#: intermediate input) but not the FlashAttention working set, roughly half
#: the skeletal footprint.
ZB_WEIGHT_STASH_FRACTION = 0.5


@dataclass(frozen=True)
class StageCosts:
    """Per-micro-batch costs of one *virtual* stage.

    Attributes:
        forward_s: compute-stream time of one micro-batch's forward pass
            through the stage (including intra-stage stalls already resolved
            by :func:`repro.sim.executor.simulate_iteration`).
        backward_s: compute-stream time of one micro-batch's *full* backward
            pass (grad-input plus grad-weight).
        p2p_bytes: activation bytes handed to the next stage after the forward
            pass; the gradient returned during backward is the same size.
        offload_bytes: bytes the stage offloads to the host per micro-batch
            (drained on the stage's D2H stream after each forward).
        prefetch_bytes: bytes prefetched from the host before each backward
            (submitted to the stage's H2D stream when the backward reaches the
            head of the rank's queue).
        recompute_s: extra compute-stream time spent rematerialising
            activations right before each backward (attached to the grad-input
            op under split-backward schedules -- that is the op that consumes
            the activations).
        activation_bytes: per-micro-batch skeletal activation bytes the stage
            keeps on the GPU between a micro-batch's forward and backward
            (what the in-flight count multiplies).
        backward_weight_s: grad-weight share of ``backward_s`` for
            split-backward (zero-bubble) schedules.  ``None`` defaults to an
            even split; the grad-input share is always the remainder
            ``backward_s - backward_weight_s``, so splitting can never create
            or destroy work.
        weight_grad_bytes: per-micro-batch bytes a deferred grad-weight op
            pins between its grad-input op and itself (the stashed
            linear-layer inputs).  Zero for fused schedules.
    """

    forward_s: float
    backward_s: float
    p2p_bytes: float = 0.0
    offload_bytes: float = 0.0
    prefetch_bytes: float = 0.0
    recompute_s: float = 0.0
    activation_bytes: float = 0.0
    backward_weight_s: Optional[float] = None
    weight_grad_bytes: float = 0.0

    def __post_init__(self) -> None:
        # NaN slips through a bare ``< 0`` check (every comparison with NaN is
        # False), so gate on isfinite explicitly.
        for name in ("forward_s", "backward_s", "recompute_s"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(
                    f"stage times must be finite and non-negative (got {name}={value})"
                )
        for name in ("p2p_bytes", "offload_bytes", "prefetch_bytes", "activation_bytes",
                     "weight_grad_bytes"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative (got {value})")
        if self.backward_weight_s is not None and not (
            math.isfinite(self.backward_weight_s)
            and 0.0 <= self.backward_weight_s <= self.backward_s + 1e-12
        ):
            raise ValueError(
                "backward_weight_s must lie within [0, backward_s] "
                f"(got {self.backward_weight_s} vs backward_s={self.backward_s})"
            )

    @property
    def split_backward_weight_s(self) -> float:
        """Grad-weight op duration under a split-backward schedule."""
        if self.backward_weight_s is None:
            return 0.5 * self.backward_s
        return self.backward_weight_s

    @property
    def split_backward_input_s(self) -> float:
        """Grad-input op duration; by construction ``input + weight == backward_s``."""
        return self.backward_s - self.split_backward_weight_s


@dataclass(frozen=True)
class PipelineOpRecord:
    """One executed op with its simulated start/end times."""

    op: StageOp
    start_s: float
    end_s: float


@dataclass(frozen=True)
class StagePeakMemory:
    """Peak activation memory of one pipeline rank under a schedule."""

    rank: int
    peak_micro_batches: int
    activation_bytes: float
    base_bytes: float
    transient_bytes: float
    rounding_buffer_bytes: float

    @property
    def total_bytes(self) -> float:
        return (
            self.base_bytes
            + self.activation_bytes
            + self.transient_bytes
            + self.rounding_buffer_bytes
        )


@dataclass
class PipelineTimeline:
    """Timing and memory results of one simulated pipeline iteration."""

    schedule: PipelineSchedule
    total_s: float
    rank_compute_busy_s: List[float]
    rank_d2h_busy_s: List[float]
    rank_h2d_busy_s: List[float]
    rank_peak_in_flight: List[int]
    rank_peak_activation_bytes: List[float]
    records: List[PipelineOpRecord] = field(default_factory=list)

    @property
    def bubble_fraction(self) -> float:
        """Measured fraction of rank-time the compute streams sat idle."""
        if self.total_s <= 0:
            return 0.0
        ranks = len(self.rank_compute_busy_s)
        busy = sum(self.rank_compute_busy_s)
        return max(1.0 - busy / (ranks * self.total_s), 0.0)

    @property
    def analytic_bubble_fraction(self) -> float:
        """The uniform-stage analytic bound the measurement is compared to."""
        return self.schedule.analytic_bubble_fraction()

    def record(self, kind: OpKind, virtual_stage: int, micro_batch: int) -> PipelineOpRecord:
        """Look up the record of one op (tests and timeline rendering)."""
        for entry in self.records:
            op = entry.op
            if op.kind is kind and op.virtual_stage == virtual_stage and op.micro_batch == micro_batch:
                return entry
        raise KeyError(f"no record for {kind.value}(vs={virtual_stage}, mb={micro_batch})")


def _normalise_costs(
    schedule: PipelineSchedule,
    costs: Union[StageCosts, Sequence[StageCosts]],
) -> List[StageCosts]:
    if isinstance(costs, StageCosts):
        return [costs] * schedule.num_virtual_stages
    costs = list(costs)
    if len(costs) != schedule.num_virtual_stages:
        raise ValueError(
            f"expected {schedule.num_virtual_stages} per-virtual-stage costs, "
            f"got {len(costs)}"
        )
    return costs


def _check_transfer_parameters(
    p2p_bandwidth_bytes_per_s: float,
    p2p_latency_s: float,
    pcie_bandwidth_bytes_per_s: float,
) -> None:
    """Reject transfer parameters no pipeline evaluator can time.

    Shared by the event engine and both fast-path executors.  The checks are
    written as ``not x > 0`` / ``not x >= 0`` so NaN fails them too (every
    comparison with NaN is False); a bare ``x <= 0`` would let it through and
    poison every transfer time.
    """
    if not p2p_bandwidth_bytes_per_s > 0:
        raise ValueError("p2p_bandwidth_bytes_per_s must be positive")
    if not p2p_latency_s >= 0:
        raise ValueError("p2p_latency_s must be non-negative")
    if not pcie_bandwidth_bytes_per_s > 0:
        raise ValueError("pcie_bandwidth_bytes_per_s must be positive")


def peak_activation_bytes(
    schedule: PipelineSchedule,
    costs: Union[StageCosts, Sequence[StageCosts]],
) -> List[float]:
    """Per-rank peak of in-flight skeletal activation bytes under a schedule."""
    per_stage = _normalise_costs(schedule, costs)
    activation = [stage.activation_bytes for stage in per_stage]
    weight_grad = [stage.weight_grad_bytes for stage in per_stage]
    peaks: List[float] = []
    for ops in schedule.rank_ops:
        live = 0.0
        peak = 0.0
        for op in ops:
            kind = op.kind
            if kind is OpKind.FORWARD:
                live += activation[op.virtual_stage]
            elif kind is OpKind.BACKWARD:
                live -= activation[op.virtual_stage]
                continue  # a release can never raise the peak
            elif kind is OpKind.BACKWARD_INPUT:
                # The grad-input op frees the activations but pins the smaller
                # weight-grad stash until the deferred W op consumes it.
                live += weight_grad[op.virtual_stage] - activation[op.virtual_stage]
            elif kind is OpKind.BACKWARD_WEIGHT:
                live -= weight_grad[op.virtual_stage]
                continue
            if live > peak:
                peak = live
        peaks.append(peak)
    return peaks


def stage_peak_memory(
    schedule: PipelineSchedule,
    costs: Union[StageCosts, Sequence[StageCosts]],
    base_bytes: Union[float, Sequence[float]] = 0.0,
    transient_peak_bytes: float = 0.0,
    rounding_buffer_bytes: float = 0.0,
) -> List[StagePeakMemory]:
    """Compose per-rank peak memory from schedule, planner and swap inputs.

    Args:
        base_bytes: per-rank model-state bytes (parameters, gradients,
            optimizer states); a scalar is broadcast to every rank.
        transient_peak_bytes: the bi-level planner's ``total_peak_bytes`` --
            transient tensors are re-planned into the same addresses for every
            micro-batch, so the peak is charged once, not per in-flight
            micro-batch.
        rounding_buffer_bytes: transfer-staging buffers that are drained and
            reused between micro-batches, likewise charged once.  A swapped
            stage's *resident* per-micro-batch share belongs in
            ``StageCosts.activation_bytes`` instead, so it multiplies with the
            in-flight count.
    """
    if isinstance(base_bytes, (int, float)):
        base = [float(base_bytes)] * schedule.num_stages
    else:
        base = [float(value) for value in base_bytes]
        if len(base) != schedule.num_stages:
            raise ValueError(f"expected {schedule.num_stages} base_bytes entries")
    activation_peaks = peak_activation_bytes(schedule, costs)
    return [
        StagePeakMemory(
            rank=rank,
            peak_micro_batches=schedule.max_in_flight(rank),
            activation_bytes=activation_peaks[rank],
            base_bytes=base[rank],
            transient_bytes=transient_peak_bytes,
            rounding_buffer_bytes=rounding_buffer_bytes,
        )
        for rank in range(schedule.num_stages)
    ]


def stage_costs_from_iteration(
    timeline: IterationTimeline,
    p2p_bytes: float = 0.0,
    num_chunks: int = 1,
    activation_bytes: float = 0.0,
    offload_bytes: float = 0.0,
    prefetch_bytes: float = 0.0,
    backward_weight_fraction: Optional[float] = None,
) -> StageCosts:
    """Convert a single-stage :class:`IterationTimeline` into per-chunk costs.

    The single-stage executor already resolves the intra-stage swap/recompute
    overlap, so its forward/backward spans (stalls included) become the
    pipeline's per-micro-batch stage times; with ``num_chunks > 1`` the stage
    is split into that many equal virtual chunks.  ``backward_weight_fraction``
    marks that share of the backward span as grad-weight work for
    split-backward (zero-bubble) schedules.
    """
    if num_chunks < 1:
        raise ValueError("num_chunks must be >= 1")
    forward = timeline.forward_end_s / num_chunks
    backward = (timeline.total_s - timeline.forward_end_s) / num_chunks
    return StageCosts(
        forward_s=forward,
        backward_s=backward,
        p2p_bytes=p2p_bytes,
        offload_bytes=offload_bytes / num_chunks,
        prefetch_bytes=prefetch_bytes / num_chunks,
        activation_bytes=activation_bytes / num_chunks,
        backward_weight_s=(
            None if backward_weight_fraction is None
            else backward_weight_fraction * backward
        ),
    )


def heterogeneous_stage_costs(
    profile: StageCostProfile,
    layer_forward_s: float,
    layer_backward_s: float,
    p2p_bytes: float = 0.0,
    activation_bytes_per_layer: float = 0.0,
    offload_bytes_per_layer: float = 0.0,
    prefetch_bytes_per_layer: float = 0.0,
    recompute_s_per_layer: float = 0.0,
    split_backward: bool = False,
    weight_stash_fraction: float = ZB_WEIGHT_STASH_FRACTION,
) -> List[StageCosts]:
    """Per-virtual-stage costs from a heterogeneous stage profile.

    Replaces the uniform broadcast of :func:`stage_costs_from_iteration`: each
    virtual stage is charged its own layer count, virtual stage 0 additionally
    the embedding lookup (whose backward is pure grad-weight work) and the
    last virtual stage the classifier projection and loss (half of whose
    backward is the wgrad GEMM).  Per-layer times/bytes come from the
    single-stage executor's span divided by its layer count, so a profile
    with all-equal stages and zero boundary extras reproduces the uniform
    costs exactly.

    Args:
        split_backward: populate the grad-input/grad-weight split (and the
            weight-grad stash bytes) consumed by zero-bubble schedules.
        weight_stash_fraction: share of a stage's per-micro-batch activation
            bytes pinned by a deferred grad-weight op.
    """
    if layer_forward_s < 0 or layer_backward_s < 0:
        raise ValueError("per-layer times must be non-negative")
    stages: List[StageCosts] = []
    last = profile.num_virtual_stages - 1
    for index, layers in enumerate(profile.layers_per_stage):
        forward = layers * layer_forward_s
        backward = layers * layer_backward_s
        weight = profile.backward_weight_fraction * backward
        if index == 0:
            forward += profile.embedding_forward_s
            backward += profile.embedding_backward_s
            weight += profile.embedding_backward_s
        if index == last:
            forward += profile.classifier_forward_s
            backward += profile.classifier_backward_s
            weight += 0.5 * profile.classifier_backward_s
        activation = layers * activation_bytes_per_layer
        stages.append(StageCosts(
            forward_s=forward,
            backward_s=backward,
            p2p_bytes=p2p_bytes,
            offload_bytes=layers * offload_bytes_per_layer,
            prefetch_bytes=layers * prefetch_bytes_per_layer,
            recompute_s=layers * recompute_s_per_layer,
            activation_bytes=activation,
            backward_weight_s=weight if split_backward else None,
            weight_grad_bytes=(
                weight_stash_fraction * activation if split_backward else 0.0
            ),
        ))
    return stages


class _PipelineState:
    """Mutable simulation state shared by the event actions."""

    def __init__(
        self,
        schedule: PipelineSchedule,
        costs: List[StageCosts],
        p2p_bandwidth_bytes_per_s: float,
        p2p_latency_s: float,
        pcie_bandwidth_bytes_per_s: float,
    ) -> None:
        self.schedule = schedule
        self.costs = costs
        self.p2p_bandwidth = p2p_bandwidth_bytes_per_s
        self.p2p_latency = p2p_latency_s
        self.pcie_bandwidth = pcie_bandwidth_bytes_per_s
        # Placement map: which rank holds each virtual stage.  Block layouts
        # reduce to ``vs % p``; the V placement folds back through the ranks.
        self.vs_rank = schedule.virtual_stage_ranks
        p = schedule.num_stages
        self.compute = [Stream(StreamKind.COMPUTE) for _ in range(p)]
        self.d2h = [Stream(StreamKind.D2H) for _ in range(p)]
        self.h2d = [Stream(StreamKind.H2D) for _ in range(p)]
        self.pointer = [0] * p
        # Dependency tables, filled in by engine events as they fire.
        self.forward_ready: Dict[Tuple[int, int], float] = {
            (0, mb): 0.0 for mb in range(schedule.num_micro_batches)
        }
        self.grad_ready: Dict[Tuple[int, int], float] = {}
        self.forward_done: Dict[Tuple[int, int], float] = {}
        self.prefetch_end: Dict[Tuple[int, int], float] = {}
        self.records: List[PipelineOpRecord] = []

    # ------------------------------------------------------------- dispatching
    def poke(self, engine: SimulationEngine, rank: int) -> None:
        """Dispatch the rank's next ops while their inputs are available."""
        ops = self.schedule.rank_ops[rank]
        while self.pointer[rank] < len(ops):
            op = ops[self.pointer[rank]]
            if op.kind is OpKind.FORWARD:
                if not self._dispatch_forward(engine, op):
                    return
            elif op.kind is OpKind.BACKWARD_WEIGHT:
                if not self._dispatch_weight(engine, op):
                    return
            else:
                if not self._dispatch_backward(engine, op):
                    return
            self.pointer[rank] += 1

    def _dispatch_forward(self, engine: SimulationEngine, op: StageOp) -> bool:
        key = (op.virtual_stage, op.micro_batch)
        ready = self.forward_ready.get(key)
        if ready is None:
            return False
        stage = self.costs[op.virtual_stage]
        start, end = self.compute[op.rank].submit(
            ready, stage.forward_s, f"fwd:vs{op.virtual_stage}:mb{op.micro_batch}"
        )
        self.records.append(PipelineOpRecord(op, start, end))
        engine.schedule_at(
            end,
            f"fwd-done:vs{op.virtual_stage}:mb{op.micro_batch}",
            lambda e, op=op, end=end: self._on_forward_complete(e, op, end),
        )
        return True

    def _dispatch_backward(self, engine: SimulationEngine, op: StageOp) -> bool:
        key = (op.virtual_stage, op.micro_batch)
        forward_end = self.forward_done.get(key)
        if forward_end is None:
            return False
        stage = self.costs[op.virtual_stage]
        # The backward is at the head of the rank's queue: its prefetch can be
        # issued now, even if the upstream gradient has not arrived yet.
        if stage.prefetch_bytes > 0 and key not in self.prefetch_end:
            transfer = stage.prefetch_bytes / self.pcie_bandwidth
            _, self.prefetch_end[key] = self.h2d[op.rank].submit(
                engine.now, transfer, f"prefetch:vs{op.virtual_stage}:mb{op.micro_batch}"
            )
        if op.virtual_stage == self.schedule.num_virtual_stages - 1:
            grad = forward_end  # loss gradient is available right after the forward
        else:
            ready = self.grad_ready.get(key)
            if ready is None:
                return False
            grad = ready
        earliest = max(grad, forward_end, self.prefetch_end.get(key, 0.0))
        if op.kind is OpKind.BACKWARD_INPUT:
            duration = stage.recompute_s + stage.split_backward_input_s
        else:
            duration = stage.recompute_s + stage.backward_s
        start, end = self.compute[op.rank].submit(
            earliest, duration, f"bwd:vs{op.virtual_stage}:mb{op.micro_batch}"
        )
        self.records.append(PipelineOpRecord(op, start, end))
        engine.schedule_at(
            end,
            f"bwd-done:vs{op.virtual_stage}:mb{op.micro_batch}",
            lambda e, op=op, end=end: self._on_backward_complete(e, op, end),
        )
        return True

    def _dispatch_weight(self, engine: SimulationEngine, op: StageOp) -> bool:
        """Submit a rank-local grad-weight op.

        Its grad-input op is already *submitted* (the in-order op list
        guarantees that, and ``validate`` enforces it), so the shared compute
        stream serialises the W op behind it; no cross-rank dependency can
        block it.
        """
        stage = self.costs[op.virtual_stage]
        start, end = self.compute[op.rank].submit(
            engine.now,
            stage.split_backward_weight_s,
            f"wgrad:vs{op.virtual_stage}:mb{op.micro_batch}",
        )
        self.records.append(PipelineOpRecord(op, start, end))
        return True

    # -------------------------------------------------------------- completions
    def _transfer_time(self, src_rank: int, dst_rank: int, num_bytes: float) -> float:
        if src_rank == dst_rank or num_bytes <= 0:
            return 0.0
        return self.p2p_latency + num_bytes / self.p2p_bandwidth

    def _on_forward_complete(self, engine: SimulationEngine, op: StageOp, end: float) -> None:
        key = (op.virtual_stage, op.micro_batch)
        self.forward_done[key] = end
        stage = self.costs[op.virtual_stage]
        if stage.offload_bytes > 0:
            self.d2h[op.rank].submit(
                end,
                stage.offload_bytes / self.pcie_bandwidth,
                f"offload:vs{op.virtual_stage}:mb{op.micro_batch}",
            )
        if op.virtual_stage < self.schedule.num_virtual_stages - 1:
            dst_stage = op.virtual_stage + 1
            dst_rank = self.vs_rank[dst_stage]
            transfer = self._transfer_time(op.rank, dst_rank, stage.p2p_bytes)
            engine.schedule_at(
                end + transfer,
                f"p2p-act:vs{dst_stage}:mb{op.micro_batch}",
                lambda e, dst_stage=dst_stage, dst_rank=dst_rank, mb=op.micro_batch: (
                    self._on_activation_arrival(e, dst_stage, dst_rank, mb)
                ),
            )
        self.poke(engine, op.rank)

    def _on_activation_arrival(
        self, engine: SimulationEngine, virtual_stage: int, rank: int, micro_batch: int,
    ) -> None:
        self.forward_ready[(virtual_stage, micro_batch)] = engine.now
        self.poke(engine, rank)

    def _on_backward_complete(self, engine: SimulationEngine, op: StageOp, end: float) -> None:
        if op.virtual_stage > 0:
            dst_stage = op.virtual_stage - 1
            dst_rank = self.vs_rank[dst_stage]
            transfer = self._transfer_time(
                op.rank, dst_rank, self.costs[dst_stage].p2p_bytes
            )
            engine.schedule_at(
                end + transfer,
                f"p2p-grad:vs{dst_stage}:mb{op.micro_batch}",
                lambda e, dst_stage=dst_stage, dst_rank=dst_rank, mb=op.micro_batch: (
                    self._on_grad_arrival(e, dst_stage, dst_rank, mb)
                ),
            )
        self.poke(engine, op.rank)

    def _on_grad_arrival(
        self, engine: SimulationEngine, virtual_stage: int, rank: int, micro_batch: int,
    ) -> None:
        self.grad_ready[(virtual_stage, micro_batch)] = engine.now
        self.poke(engine, rank)


def simulate_pipeline(
    schedule: PipelineSchedule,
    costs: Union[StageCosts, Sequence[StageCosts]],
    p2p_bandwidth_bytes_per_s: float = float("inf"),
    p2p_latency_s: float = 0.0,
    pcie_bandwidth_bytes_per_s: float = 16e9,
    engine: Optional[SimulationEngine] = None,
) -> PipelineTimeline:
    """Simulate one iteration of a pipeline-parallel schedule.

    Args:
        schedule: the per-rank op lists (see :func:`repro.sim.schedules.build_schedule`).
        costs: per-virtual-stage costs, or one :class:`StageCosts` broadcast to
            every stage.
        p2p_bandwidth_bytes_per_s / p2p_latency_s: inter-stage transfer model;
            transfers between virtual stages co-located on one rank are free.
        pcie_bandwidth_bytes_per_s: effective host-transfer bandwidth for the
            per-stage offload/prefetch streams.
        engine: an existing :class:`SimulationEngine` to run on (a fresh one is
            created by default).

    Returns:
        A :class:`PipelineTimeline`; ``bubble_fraction`` is measured from the
        simulated compute-stream occupancy.

    Raises:
        RuntimeError: if the schedule deadlocks (an op's dependencies are never
            satisfied) -- a validated schedule from ``build_schedule`` cannot.
    """
    per_stage = _normalise_costs(schedule, costs)
    _check_transfer_parameters(
        p2p_bandwidth_bytes_per_s, p2p_latency_s, pcie_bandwidth_bytes_per_s,
    )
    if engine is None:
        # The executor never reads the event log; skip retaining it so large
        # experiment grids do not hold O(events) garbage per simulation.
        engine = SimulationEngine(record=False)

    state = _PipelineState(
        schedule, per_stage, p2p_bandwidth_bytes_per_s, p2p_latency_s,
        pcie_bandwidth_bytes_per_s,
    )
    engine.schedule(
        0.0, "pipeline-start",
        lambda e: [state.poke(e, rank) for rank in range(schedule.num_stages)],
    )
    engine.run()

    stuck = [
        (rank, state.schedule.rank_ops[rank][state.pointer[rank]])
        for rank in range(schedule.num_stages)
        if state.pointer[rank] < len(state.schedule.rank_ops[rank])
    ]
    if stuck:
        summary = ", ".join(f"rank {rank}: {op}" for rank, op in stuck)
        raise RuntimeError(f"pipeline schedule deadlocked at {summary}")

    total = max(
        [stream.available_at for stream in state.compute]
        + [stream.available_at for stream in state.d2h]
        + [stream.available_at for stream in state.h2d]
    )
    return PipelineTimeline(
        schedule=schedule,
        total_s=total,
        rank_compute_busy_s=[stream.busy_time for stream in state.compute],
        rank_d2h_busy_s=[stream.busy_time for stream in state.d2h],
        rank_h2d_busy_s=[stream.busy_time for stream in state.h2d],
        rank_peak_in_flight=schedule.peak_in_flight(),
        rank_peak_activation_bytes=peak_activation_bytes(schedule, per_stage),
        records=state.records,
    )
