"""Common machinery for training systems: workloads, reports and the shared
iteration simulator every system (MEMO and baselines) builds on.

Scoring invariants:

* PP candidates are scored by *simulating* their pipeline schedule with
  heterogeneous per-stage costs (uneven layer partition, embedding-heavy
  stage 0, classifier-heavy last stage) -- the analytic
  ``(p - 1) / (m + p - 1)`` bubble survives only behind
  ``pipeline_schedule=None``;
* the scoring runs on the memoized critical-path fast evaluator
  (``pipeline_engine="fast"``, bit-identical to the event engine) and prunes
  schedule candidates whose analytic lower bound cannot beat the incumbent;
  ``pipeline_engine="event"`` / ``validate_pipeline=True`` re-enable the
  discrete-event oracle, and neither knob changes any reported number;
* per-stage peak memory charges per-micro-batch state (skeletal activations,
  rounding-buffer share, host copies) once per in-flight micro-batch of the
  schedule, planner transients and the classifier working set once per rank,
  and -- for zero-bubble schedules -- each deferred grad-weight stash a
  configurable fraction of a micro-batch's skeletal bytes
  (:data:`repro.sim.pipeline.ZB_WEIGHT_STASH_FRACTION`), scaled by the chunk
  count for chunked split schedules (ZB-V pins two chunk stashes per rank,
  each half a micro-batch's worth);
* a strategy is infeasible ("oom"/"oohm") if *no* schedule candidate fits;
  with ``pipeline_schedule="auto"`` the fastest feasible candidate wins;
* after the swap schedule's "oohm" check, an unscaled footprint over the
  GPU returns candidate 0's "oom" verdict -- the sweep's own answer --
  without bounding, building or simulating any other candidate.
"""

from __future__ import annotations

import copy
import functools
import json
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.config import (
    CalibrationConstants, DEFAULT_CALIBRATION, DEFAULT_PRECISION, PrecisionConfig, require_count,
)
from repro.jsonutil import from_hex_float, hex_float, opt_from_hex_float, opt_hex_float
from repro.hardware.cluster import ClusterSpec, make_a800_cluster
from repro.model.specs import ModelConfig, get_model_config
from repro.parallel.comm_model import pipeline_p2p_bytes_per_micro_batch
from repro.parallel.memory_model import MemoryBreakdown, estimate_memory
from repro.parallel.search import (
    PIPELINE_SCHEDULE_CANDIDATES,
    ParetoFrontier,
    ParetoPoint,
    SearchConfig,
    SearchStats,
    Shape,
    StrategySearchSpace,
    build_candidate_schedule,
    deduplicated_degenerate_warnings,
    enumerate_strategies,
    find_best_strategy,
    pareto_frontier,
    pruned_sweep,
    schedule_candidates,
    score_candidate,
)
from repro.parallel.strategy import OffloadMode, ParallelismConfig, RecomputeMode
from repro.sim.costs import CostModel, LayerCosts
from repro.sim.executor import IterationTimeline, LayerTask, simulate_iteration
from repro.sim.fastpath import LOWER_BOUND_SAFETY, pipeline_lower_bound_for_shape
from repro.sim.pipeline import PipelineTimeline, ZB_WEIGHT_STASH_FRACTION, heterogeneous_stage_costs
from repro.sim.failures import TimeToTrainDistribution
from repro.sim.schedules import PipelineSchedule, ScheduleKind
from repro.sim.stochastic import MakespanDistribution
from repro.swap.schedule import SwapSchedule, build_swap_schedule
from repro.systems.metrics import compute_mfu, compute_tgs, format_wall_clock

#: Global batch used throughout the paper's end-to-end evaluation: the TGS and
#: wall-clock numbers of Table 3 are consistent with 16 sequences per iteration.
DEFAULT_GLOBAL_BATCH_SAMPLES = 16

#: Per-GPU PCIe bandwidth is shared with the other GPUs of the node when they
#: offload concurrently; the achievable per-GPU rate is correspondingly lower.
#: Calibrated so that one layer's full offload overlaps one layer's forward
#: compute at roughly a 192K sequence length with TP=8 (Figure 1(b)).
PCIE_CONTENTION_FACTOR = 0.36


@dataclass(frozen=True)
class Workload:
    """A training workload: model, context length and cluster size."""

    model_name: str
    sequence_length: int
    num_gpus: int
    global_batch_samples: int = DEFAULT_GLOBAL_BATCH_SAMPLES
    micro_batch_size: int = 1

    def __post_init__(self) -> None:
        for name in ("sequence_length", "num_gpus", "global_batch_samples",
                     "micro_batch_size"):
            require_count(name, getattr(self, name), 1)

    @property
    def model(self) -> ModelConfig:
        return get_model_config(self.model_name)

    def to_json_dict(self) -> dict:
        """Plain-JSON mapping; inverse of :meth:`from_json_dict`."""
        return {
            "model_name": self.model_name,
            "sequence_length": self.sequence_length,
            "num_gpus": self.num_gpus,
            "global_batch_samples": self.global_batch_samples,
            "micro_batch_size": self.micro_batch_size,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Workload":
        """Rebuild a workload serialized by :meth:`to_json_dict`."""
        return cls(
            model_name=data["model_name"],
            sequence_length=data["sequence_length"],
            num_gpus=data["num_gpus"],
            global_batch_samples=data["global_batch_samples"],
            micro_batch_size=data["micro_batch_size"],
        )

    def cluster(self) -> ClusterSpec:
        return _a800_cluster(self.num_gpus)


_a800_cluster = functools.lru_cache(maxsize=64)(make_a800_cluster)


@dataclass
class TrainingReport:
    """Outcome of running (simulating) a workload with a training system.

    ``feasible`` is False when no strategy in the system's search space fits in
    GPU and host memory; ``failure_reason`` then distinguishes ``"oom"`` (GPU)
    from ``"oohm"`` (host), matching the paper's %oom / %oohm markers.
    """

    system: str
    workload: Workload
    feasible: bool
    failure_reason: Optional[str] = None
    mfu: float = 0.0
    tgs: float = 0.0
    iteration_time_s: float = 0.0
    parallel: Optional[ParallelismConfig] = None
    alpha: Optional[float] = None
    memory: Optional[MemoryBreakdown] = None
    timeline: Optional[IterationTimeline] = None
    pipeline_timeline: Optional[PipelineTimeline] = None
    notes: List[str] = field(default_factory=list)
    #: Schedule-sweep work counters summed over every strategy candidate
    #: (pruned = skipped via the analytic lower bound, never simulated).
    schedules_simulated: int = 0
    schedules_pruned: int = 0
    #: Strategy-level work counters: parallelism points actually evaluated
    #: vs skipped outright because their analytic floor (FLOPs/bandwidth
    #: compute plus serial overhead) could not beat the incumbent.
    strategies_evaluated: int = 0
    strategies_pruned: int = 0
    #: Monte-Carlo makespan distribution of the winning strategy's pipeline
    #: schedule -- populated only when the system runs with a non-null jitter
    #: spec; ``iteration_time_s`` then scores the risk objective (p50/p99/
    #: CVaR of this distribution plus the serial overhead), not the mean.
    makespan_distribution: Optional[MakespanDistribution] = None
    #: Time-to-train distribution of the winning strategy under the system's
    #: failure process and recovery model -- populated only when the system
    #: runs with a non-null failure spec.  Under a ``ttrain_*`` risk
    #: objective, ``iteration_time_s`` is this distribution's effective
    #: per-iteration time for that objective.
    time_to_train: Optional[TimeToTrainDistribution] = None
    #: Cross-seed stability of the selected strategy -- populated when the
    #: system was constructed with ``stability_replicas > 0``.
    selection_stability: Optional["SelectionStability"] = None
    #: Non-dominated feasible strategies over (iteration time, peak memory,
    #: host-offload traffic).  The time-optimal corner is always ``parallel``
    #: (the argmax winner); the rest are the slower-but-leaner alternatives a
    #: fleet planner can fall back to.  ``None`` when no strategy is feasible.
    pareto_frontier: Optional[ParetoFrontier] = None
    #: Pipeline schedule the winning strategy runs (``None`` for PP=1 or an
    #: infeasible workload).  Duplicates ``pipeline_timeline.schedule.kind``
    #: so a serialized report keeps the selected schedule without dragging
    #: the full timeline along.
    schedule_kind: Optional[ScheduleKind] = None

    @property
    def wall_clock(self) -> str:
        """Formatted per-iteration wall-clock time (or the failure marker)."""
        if not self.feasible:
            return f"%{self.failure_reason or 'oom'}"
        return format_wall_clock(self.iteration_time_s)

    def cell(self, metric: str) -> str:
        """Render one Table 3 cell (mfu / tgs / wall_clock)."""
        if not self.feasible:
            return f"%{self.failure_reason or 'oom'}"
        if metric == "mfu":
            return f"{self.mfu * 100:.2f}%"
        if metric == "tgs":
            return f"{self.tgs:.2f}"
        if metric == "wall_clock":
            return self.wall_clock
        raise ValueError(f"unknown metric {metric!r}")

    def to_json_dict(self) -> dict:
        """Plain-JSON mapping of everything machine-readable in the report.

        Exact times travel as hex floats, nested distributions/frontiers use
        their own ``to_json_dict``.  The two timeline fields are exempt from
        the round-trip (they are pipeline *visualisations*, arbitrarily deep
        object graphs; the schedule identity they add is preserved as
        ``schedule_kind``) -- :meth:`from_json_dict` leaves them ``None``.
        """
        return {
            "system": self.system,
            "workload": self.workload.to_json_dict(),
            "feasible": self.feasible,
            "failure_reason": self.failure_reason,
            "mfu": hex_float(self.mfu),
            "tgs": hex_float(self.tgs),
            "iteration_time_s": hex_float(self.iteration_time_s),
            "parallel": (
                self.parallel.to_json_dict() if self.parallel is not None else None
            ),
            "alpha": opt_hex_float(self.alpha),
            "memory": (
                self.memory.to_json_dict() if self.memory is not None else None
            ),
            "notes": list(self.notes),
            "schedules_simulated": self.schedules_simulated,
            "schedules_pruned": self.schedules_pruned,
            "strategies_evaluated": self.strategies_evaluated,
            "strategies_pruned": self.strategies_pruned,
            "makespan_distribution": (
                self.makespan_distribution.to_json_dict()
                if self.makespan_distribution is not None else None
            ),
            "time_to_train": (
                self.time_to_train.to_json_dict()
                if self.time_to_train is not None else None
            ),
            "selection_stability": (
                self.selection_stability.to_json_dict()
                if self.selection_stability is not None else None
            ),
            "pareto_frontier": (
                self.pareto_frontier.to_json_dict()
                if self.pareto_frontier is not None else None
            ),
            "schedule_kind": (
                self.schedule_kind.value if self.schedule_kind is not None else None
            ),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TrainingReport":
        """Inverse of :meth:`to_json_dict` (timeline fields stay ``None``).

        Every scalar, strategy, distribution and frontier compares ``==`` to
        the original's, and re-serializing the result reproduces the input
        byte for byte.
        """
        parallel = data["parallel"]
        memory = data["memory"]
        makespan = data["makespan_distribution"]
        ttrain = data["time_to_train"]
        stability = data["selection_stability"]
        frontier = data["pareto_frontier"]
        kind = data["schedule_kind"]
        return cls(
            system=data["system"],
            workload=Workload.from_json_dict(data["workload"]),
            feasible=data["feasible"],
            failure_reason=data["failure_reason"],
            mfu=from_hex_float(data["mfu"]),
            tgs=from_hex_float(data["tgs"]),
            iteration_time_s=from_hex_float(data["iteration_time_s"]),
            parallel=(
                ParallelismConfig.from_json_dict(parallel)
                if parallel is not None else None
            ),
            alpha=opt_from_hex_float(data["alpha"]),
            memory=(
                MemoryBreakdown.from_json_dict(memory)
                if memory is not None else None
            ),
            notes=list(data["notes"]),
            schedules_simulated=data["schedules_simulated"],
            schedules_pruned=data["schedules_pruned"],
            strategies_evaluated=data["strategies_evaluated"],
            strategies_pruned=data["strategies_pruned"],
            makespan_distribution=(
                MakespanDistribution.from_json_dict(makespan)
                if makespan is not None else None
            ),
            time_to_train=(
                TimeToTrainDistribution.from_json_dict(ttrain)
                if ttrain is not None else None
            ),
            selection_stability=(
                SelectionStability.from_json_dict(stability)
                if stability is not None else None
            ),
            pareto_frontier=(
                ParetoFrontier.from_json_dict(frontier)
                if frontier is not None else None
            ),
            schedule_kind=None if kind is None else ScheduleKind.from_name(kind),
        )

    def to_json(self) -> str:
        """Stable (sorted-keys) JSON string of :meth:`to_json_dict`."""
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TrainingReport":
        """Inverse of :meth:`to_json`."""
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class SelectionStability:
    """Outcome of :meth:`TrainingSystem.strategy_selection_stability`.

    ``baseline`` is the deterministic (jitter-disabled) argmax;
    ``selections`` holds the winner of one full risk-adjusted search per
    Monte-Carlo seed.  ``stability`` is the fraction of seeds that agree
    with the baseline -- 1.0 means the deterministic choice is robust to
    the configured jitter, values near 0 mean it flips routinely.
    """

    baseline: Optional[ParallelismConfig]
    selections: Tuple[Optional[ParallelismConfig], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "selections", tuple(self.selections))

    @property
    def stability(self) -> float:
        if not self.selections:
            return 1.0
        agreeing = sum(1 for choice in self.selections if choice == self.baseline)
        return agreeing / len(self.selections)

    def to_json_dict(self) -> dict:
        """Plain-JSON mapping preserving per-seed selection order."""
        return {
            "baseline": (
                self.baseline.to_json_dict() if self.baseline is not None else None
            ),
            "selections": [
                choice.to_json_dict() if choice is not None else None
                for choice in self.selections
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SelectionStability":
        """Inverse of :meth:`to_json_dict` -- compares ``==`` to the original."""
        baseline = data["baseline"]
        return cls(
            baseline=(
                ParallelismConfig.from_json_dict(baseline)
                if baseline is not None else None
            ),
            selections=tuple(
                ParallelismConfig.from_json_dict(choice)
                if choice is not None else None
                for choice in data["selections"]
            ),
        )

    def to_json(self) -> str:
        """Stable (sorted-keys) JSON string of :meth:`to_json_dict`."""
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SelectionStability":
        """Inverse of :meth:`to_json`."""
        return cls.from_json_dict(json.loads(text))


@dataclass
class StrategyEvaluation:
    """Internal result of evaluating one strategy for one workload."""

    feasible: bool
    iteration_time_s: float
    reason: Optional[str]
    memory: Optional[MemoryBreakdown] = None
    timeline: Optional[IterationTimeline] = None
    pipeline: Optional[PipelineTimeline] = None
    alpha: Optional[float] = None
    reorganizations: int = 0
    schedule_kind: Optional[ScheduleKind] = None
    schedules_simulated: int = 0
    schedules_pruned: int = 0
    distribution: Optional[MakespanDistribution] = None
    time_to_train: Optional[TimeToTrainDistribution] = None


class PipelineHop(NamedTuple):
    """One micro-batch's hand-off to the next stage, in one direction."""

    #: Boundary activation (or gradient) bytes; 0 without pipelining.
    bytes: float
    #: Link time of the transfer.
    time_s: float
    #: ``bytes / time_s``, or infinity when the hand-off is free.
    bandwidth_bytes_per_s: float


@dataclass(frozen=True)
class StageExecution:
    """One pipeline stage's lowered execution: costs, swap plan and timeline.

    Produced by :meth:`TrainingSystem.stage_execution`; the timeline is the
    single-stage executor's result for one micro-batch (swap/recompute stalls
    resolved), which the pipeline simulator consumes as per-stage costs.  The
    per-layer task list, both timelines and the memory estimate are built on
    first read, so a strategy rejected on memory grounds never pays for a
    task list or a discrete-event run.  Frozen: one execution is shared by
    every system and global batch that lowers the same strategy.
    """

    cost_model: CostModel
    layer_costs: LayerCosts
    sequence_length: int
    layers_per_stage: int
    pcie_bandwidth_bytes_per_s: float
    swap_schedule: Optional[SwapSchedule]
    effective_alpha: Optional[float]
    boundary_compute_s: float
    recompute: RecomputeMode
    _stage_costs_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @functools.cached_property
    def base_memory(self) -> MemoryBreakdown:
        """Per-GPU memory of the stage before any system-specific scaling."""
        costs = self.cost_model
        return estimate_memory(
            model=costs.model,
            cluster=costs.cluster,
            parallel=costs.parallel,
            sequence_length=self.sequence_length,
            batch_size=costs.batch_size,
            offload_alpha=self.effective_alpha or 0.0,
            planned_transient_peak_bytes=None,
            precision=costs.precision,
            calibration=costs.calibration,
        )

    @functools.cached_property
    def tasks(self) -> List[LayerTask]:
        """The single-stage executor's per-layer task list."""
        costs, schedule = self.layer_costs, self.swap_schedule
        tasks: List[LayerTask] = []
        for layer in range(self.layers_per_stage):
            offload_bytes = 0.0
            prefetch_bytes = 0.0
            recompute_s = 0.0
            resident = False
            if schedule is not None:
                plan = schedule.layers[layer]
                offload_bytes = plan.offload_bytes
                prefetch_bytes = plan.prefetch_bytes
                resident = plan.offload_bytes == 0 and plan.recompute_bytes == 0
                # Token-wise recomputation only rebuilds the "other" skeletal
                # tensors, which does not involve FlashAttention and is
                # therefore cheap relative to a full forward pass.
                recompute_s = schedule.recompute_fraction(layer) * costs.partial_recompute_s
            elif self.recompute is RecomputeMode.FULL:
                recompute_s = costs.recompute_s
            elif self.recompute is RecomputeMode.TOKEN_WISE:
                # Token-wise recomputation without swapping: every "other"
                # skeletal tensor is rebuilt before the backward pass.
                recompute_s = costs.partial_recompute_s
            tasks.append(
                LayerTask(
                    forward_compute_s=costs.forward_total_s,
                    backward_compute_s=costs.backward_total_s,
                    offload_bytes=offload_bytes,
                    prefetch_bytes=prefetch_bytes,
                    recompute_s=recompute_s,
                    resident=resident,
                )
            )
        return tasks

    @functools.cached_property
    def timeline(self) -> IterationTimeline:
        """Single-stage, single-micro-batch timeline."""
        return simulate_iteration(
            self.tasks,
            pcie_bandwidth_bytes_per_s=self.pcie_bandwidth_bytes_per_s,
            boundary_compute_s=self.boundary_compute_s,
            serial_overhead_s=0.0,
        )

    @functools.cached_property
    def stage_timeline(self) -> IterationTimeline:
        """Like :attr:`timeline` but without the embedding/classifier boundary.

        The heterogeneous pipeline costing charges the boundary work to the
        stages that actually hold it (embedding on stage 0, classifier on the
        last stage), so the transformer-layer span must be boundary-free.
        """
        return simulate_iteration(
            self.tasks,
            pcie_bandwidth_bytes_per_s=self.pcie_bandwidth_bytes_per_s,
            boundary_compute_s=0.0,
            serial_overhead_s=0.0,
        )

    @functools.cached_property
    def p2p_hop(self) -> PipelineHop:
        """The pipeline transfer model of one micro-batch crossing one stage
        boundary, shared by the candidate sweep and ``sim-pipeline``."""
        costs = self.cost_model
        num_bytes = pipeline_p2p_bytes_per_micro_batch(
            costs.model, costs.parallel, self.sequence_length, costs.batch_size, costs.precision,
        )
        time_s = costs.pipeline_p2p_time(num_bytes)
        return PipelineHop(num_bytes, time_s, num_bytes / time_s if time_s > 0 else float("inf"))

    @property
    def forward_s(self) -> float:
        """Per-micro-batch forward span of the stage."""
        return self.timeline.forward_end_s

    @property
    def backward_s(self) -> float:
        """Per-micro-batch backward span (boundary compute included)."""
        return self.timeline.total_s - self.timeline.forward_end_s

    def stage_costs_for_shape(
        self,
        num_virtual_stages: int,
        split_backward: bool,
        sequence_length: int,
        activation_bytes_per_micro_batch: float = 0.0,
        p2p_bytes: float = 0.0,
    ):
        """Heterogeneous per-virtual-stage costs of this execution under a schedule.

        The single canonical lowering used by the strategy search, the
        ``sim-pipeline`` CLI and the benchmarks: per-layer spans come from the
        boundary-free :attr:`stage_timeline` divided by the uniform layer
        count, the stage profile from
        :meth:`repro.sim.costs.CostModel.stage_cost_profile`, and the
        grad-input/grad-weight split is populated whenever the schedule asks
        for it.

        Memoized per execution: the ``pipeline_schedule="auto"`` sweep asks
        for the same lowering once per schedule candidate, and the costs only
        depend on the schedule's virtual-stage count and backward-split, not
        on its op order -- which also lets the pruning bound cost a candidate
        without building its schedule.  Returns a tuple -- treat it as
        immutable (it doubles as the fast-path cache key).
        """
        key = (
            num_virtual_stages, split_backward,
            sequence_length, activation_bytes_per_micro_batch, p2p_bytes,
        )
        cached = self._stage_costs_cache.get(key)
        if cached is not None:
            return cached
        profile = self.cost_model.stage_cost_profile(
            sequence_length, num_virtual_stages, layer_costs=self.layer_costs,
        )
        span = self.stage_timeline
        costs = tuple(heterogeneous_stage_costs(
            profile,
            span.forward_end_s / self.layers_per_stage,
            (span.total_s - span.forward_end_s) / self.layers_per_stage,
            p2p_bytes=p2p_bytes,
            activation_bytes_per_layer=(
                activation_bytes_per_micro_batch / self.layers_per_stage
            ),
            split_backward=split_backward,
        ))
        self._stage_costs_cache[key] = costs
        return costs


class _Lowering(NamedTuple):
    """A strategy's batch-independent lowering (see :data:`_LOWERINGS`)."""

    cost_model: CostModel
    layer_costs: LayerCosts
    #: Stage execution per alpha, by ``repr`` (``0.0`` and ``-0.0`` differ).
    stages: Dict[str, StageExecution]


#: Process-wide memo of every strategy's per-micro-batch lowering.  None of
#: it depends on the global batch, so a fleet grid lowers each strategy once,
#: not once per point.  The key leaves out ``micro_batches`` (derived from
#: the global batch, never read by the lowering), and the memoized cost model
#: holds :meth:`ParallelismConfig.per_micro_batch`.  Entries are pure
#: functions of their key; ``clear_fastpath_caches()`` empties the memo.
_LOWERINGS: "OrderedDict[tuple, _Lowering]" = OrderedDict()
_LOWERINGS_MAXSIZE = 2048


def clear_lowering_memo() -> None:
    """Drop every memoized strategy lowering and cluster spec."""
    _LOWERINGS.clear()
    _a800_cluster.cache_clear()


class TrainingSystem(ABC):
    """Base class of the simulated training systems.

    Subclasses define a name, a strategy search space and how a single strategy
    is evaluated (memory feasibility plus iteration time); the base class runs
    the search and converts the best strategy into a :class:`TrainingReport`.
    """

    #: Multiplier on activation memory modelling framework-specific overheads
    #: (workspace buffers, less economical checkpoint storage).  Calibrated per
    #: system against the paper's maximum supported sequence lengths.
    activation_overhead_factor: float = 1.0

    #: Whether the system plans memory statically (no fragmentation overhead,
    #: no allocator-reorganisation stalls).
    uses_memory_planning: bool = False

    def __init__(
        self,
        calibration: CalibrationConstants = DEFAULT_CALIBRATION,
        precision: PrecisionConfig = DEFAULT_PRECISION,
        config: SearchConfig = SearchConfig(),
        **overrides,
    ) -> None:
        """``config`` holds the search knobs (:class:`~repro.parallel.search.SearchConfig`);
        ``overrides`` replace its fields, validated by the same constructor."""
        self.calibration = calibration
        self.precision = precision
        self.config = replace(config, **overrides)

    # ------------------------------------------------------------- subclass API
    @property
    @abstractmethod
    def name(self) -> str:
        """Human-readable system name."""

    @abstractmethod
    def search_space(self, workload: Workload) -> StrategySearchSpace:
        """The strategy knobs this system may use for a workload."""

    @abstractmethod
    def evaluate_strategy(self, workload: Workload, parallel: ParallelismConfig) -> StrategyEvaluation:
        """Evaluate one strategy: memory feasibility and iteration time."""

    # --------------------------------------------------------------- public API
    def run(self, workload: Workload) -> TrainingReport:
        """Search the strategy space and report the best achievable efficiency."""
        config = self.config
        model = workload.model
        cluster = workload.cluster()
        candidates = enumerate_strategies(
            self.search_space(workload), model, workload.num_gpus,
            gpus_per_node=cluster.node.gpus_per_node,
            global_batch_samples=workload.global_batch_samples,
        )
        evaluations = {}

        def evaluate(parallel: ParallelismConfig) -> Tuple[bool, float, Optional[str]]:
            evaluation = self.evaluate_strategy(workload, parallel)
            evaluations[parallel] = evaluation
            return evaluation.feasible, evaluation.iteration_time_s, evaluation.reason

        strategy_bound = None
        if config.prune_strategy_search:
            def strategy_bound(parallel: ParallelismConfig) -> float:
                return self.strategy_lower_bound(workload, parallel)

        stats = SearchStats()
        best, evaluated = find_best_strategy(
            candidates, evaluate, strategy_bound=strategy_bound, stats=stats,
        )
        simulated = sum(e.schedules_simulated for e in evaluations.values())
        pruned = sum(e.schedules_pruned for e in evaluations.values())
        if best is None:
            reason = _dominant_failure_reason([evaluations[e.parallel] for e in evaluated])
            return TrainingReport(
                system=self.name,
                workload=workload,
                feasible=False,
                failure_reason=reason,
                schedules_simulated=simulated,
                schedules_pruned=pruned,
                strategies_evaluated=stats.strategies_evaluated,
                strategies_pruned=stats.strategies_pruned,
            )
        evaluation = evaluations[best.parallel]
        frontier_points = [
            ParetoPoint(
                parallel=parallel,
                iteration_time_s=candidate.iteration_time_s,
                peak_memory_bytes=float(candidate.memory.total_bytes),
                host_offload_bytes=float(candidate.memory.host_offload_bytes),
                schedule_kind=(
                    candidate.pipeline.schedule.kind
                    if candidate.pipeline is not None else None
                ),
            )
            for parallel, candidate in evaluations.items()
            if candidate.feasible and candidate.memory is not None
        ]
        frontier = pareto_frontier(frontier_points, winner=best.parallel)
        stats.pareto_frontier = frontier
        mfu = compute_mfu(
            model, workload.sequence_length, workload.global_batch_samples,
            workload.num_gpus, cluster.gpu, evaluation.iteration_time_s,
        )
        tgs = compute_tgs(
            workload.sequence_length, workload.global_batch_samples,
            workload.num_gpus, evaluation.iteration_time_s,
        )
        notes = []
        if evaluation.pipeline is not None:
            notes.append(f"pipeline schedule: {evaluation.pipeline.schedule.kind.value}")
        if evaluation.distribution is not None:
            dist = evaluation.distribution
            notes.append(
                f"risk objective: {config.risk_objective} over {dist.replicas} "
                f"replicas (seed {dist.seed}, jitter {dist.spec.describe()}); "
                f"p50 {dist.p50_s:.2f}s / p95 {dist.p95_s:.2f}s / "
                f"p99 {dist.p99_s:.2f}s"
            )
        if evaluation.time_to_train is not None:
            ttd = evaluation.time_to_train
            interval = ttd.checkpoint_interval_s
            notes.append(
                f"failure process: {config.failures.describe()}; recovery: "
                f"{config.recovery.describe()} (checkpoint interval "
                f"{'inf' if interval == float('inf') else f'{interval:.0f}s'}); "
                f"time-to-train over {ttd.target_iterations} iterations: "
                f"mean {ttd.mean_s:.1f}s / p99 {ttd.p99_s:.1f}s, "
                f"{ttd.mean_failures:.1f} interruptions/run, "
                f"slowdown x{ttd.expected_slowdown:.3f}"
            )
        if pruned:
            notes.append(f"schedule sweep: {simulated} simulated, {pruned} pruned")
        if len(frontier) > 1:
            notes.append(
                f"pareto frontier: {len(frontier)} of {len(frontier_points)} "
                f"feasible strategies non-dominated "
                f"(time x memory x host traffic)"
            )
        if stats.strategies_pruned:
            notes.append(
                f"strategy search: {stats.strategies_evaluated} evaluated, "
                f"{stats.strategies_pruned} pruned by the analytic floor"
            )
        stability: Optional[SelectionStability] = None
        if config.stability_replicas > 0:
            stability = self.strategy_selection_stability(
                workload,
                replicas=config.stability_replicas,
                base_seed=config.monte_carlo_seed,
            )
            notes.append(
                f"selection stability: {stability.stability:.0%} of "
                f"{len(stability.selections)} seeds keep the deterministic winner"
            )
        return TrainingReport(
            system=self.name,
            workload=workload,
            feasible=True,
            mfu=mfu,
            tgs=tgs,
            iteration_time_s=evaluation.iteration_time_s,
            parallel=best.parallel,
            alpha=evaluation.alpha,
            memory=evaluation.memory,
            timeline=evaluation.timeline,
            pipeline_timeline=evaluation.pipeline,
            notes=notes,
            schedules_simulated=simulated,
            schedules_pruned=pruned,
            strategies_evaluated=stats.strategies_evaluated,
            strategies_pruned=stats.strategies_pruned,
            makespan_distribution=evaluation.distribution,
            time_to_train=evaluation.time_to_train,
            selection_stability=stability,
            pareto_frontier=frontier,
            schedule_kind=evaluation.schedule_kind,
        )

    def strategy_selection_stability(
        self,
        workload: Workload,
        replicas: int = 8,
        base_seed: int = 0,
    ) -> "SelectionStability":
        """How stable the selected strategy is across independent jitter seeds.

        Runs one *deterministic* search (jitter and failures off) to pin
        the baseline argmax, then one full risk-adjusted search per replica
        with the Monte-Carlo seed varied (``base_seed + replica``), and
        reports the fraction of draws that keep the baseline winner.  A
        low stability means the deterministic argmax sits on a knife's edge
        the configured jitter routinely flips -- exactly the "wins by 1%
        deterministically but collapses under 5% jitter" signal the
        risk-adjusted objective exists to catch.

        The whole sweep runs inside one
        :func:`~repro.parallel.search.deduplicated_degenerate_warnings`
        context, so a degenerate parallelism point warns once per stability
        sweep -- not once per replica search.
        """
        if replicas < 1:
            raise ValueError("replicas must be >= 1")

        def selected(**changes) -> Optional[ParallelismConfig]:
            # A copy searches with the derived config (and no stability sweep
            # of its own); this system is left untouched.
            system = copy.copy(self)
            system.config = replace(self.config, stability_replicas=0, **changes)
            return system.run(workload).parallel

        with deduplicated_degenerate_warnings():
            baseline = selected(jitter=None, failures=None)
            selections = [
                selected(monte_carlo_seed=base_seed + replica) for replica in range(replicas)
            ]
        return SelectionStability(baseline=baseline, selections=selections)

    def max_sequence_length(
        self,
        model_name: str,
        num_gpus: int,
        candidates_k: Optional[List[int]] = None,
    ) -> int:
        """Longest sequence length (in K tokens) the system can train.

        Used by the scalability experiment (Figure 11(a)); the candidate grid
        defaults to multiples of 128K up to 8M.
        """
        if candidates_k is None:
            candidates_k = [128 * i for i in range(1, 65)]
        longest = 0
        for kilotokens in sorted(candidates_k):
            workload = Workload(model_name, kilotokens * 1024, num_gpus)
            report = self.run(workload)
            if report.feasible:
                longest = kilotokens
        return longest

    # ------------------------------------------------------------ shared pieces
    def strategy_lower_bound(self, workload: Workload, parallel: ParallelismConfig) -> float:
        """A cheap analytic floor on :meth:`evaluate_strategy`'s iteration time.

        Pure closed-form arithmetic -- no memory estimate, no swap schedule,
        no stage-executor simulation, no schedule build -- which is what
        makes pruning on it profitable: a pruned strategy costs one lookup
        of the memoized lowering (:data:`_LOWERINGS`, whose cost model and
        layer costs :meth:`stage_execution` reuses) instead of a full
        evaluation.

        The floor is the sum of two terms, each provably below what
        :meth:`_shared_evaluation` reports for a feasible strategy:

        * **compute floor**: the busiest pipeline rank holds at least
          ``num_layers / pp`` transformer layers (uneven partitions only
          rebalance around that average), each micro-batch must run their
          forward and backward there serially, and the replica runs
          ``global_batch // dp`` micro-batches.  Per-layer spans are the cost
          model's compute + non-overlapped communication times -- the same
          numbers the stage executor replays, which can only *add* swap
          stalls, recomputation and boundary (embedding/classifier) work;
        * **serial floor**: the optimizer step, gradient synchronisation and
          ZeRO-3 gather times, which every evaluation charges verbatim;
          allocator-reorganisation stalls and system-specific serial extras
          only add on top.

        Scaled down by :data:`repro.sim.fastpath.LOWER_BOUND_SAFETY` so float
        rounding can never turn the floor into an over-estimate; combined
        with :func:`repro.parallel.search.find_best_strategy`'s index
        tie-breaking, strategy-level pruning can never change the selected
        strategy (property-tested on an exhaustive lattice).
        """
        model = workload.model
        cost_model, layer_costs, _ = self._lowering(workload, parallel)
        micro_iterations = max(
            workload.global_batch_samples // max(parallel.data_parallel, 1), 1,
        )
        layer_span = layer_costs.forward_total_s + layer_costs.backward_total_s
        compute_floor = (
            micro_iterations * model.num_layers * layer_span
            / parallel.pipeline_parallel
        )
        params_per_gpu = model.num_parameters / (
            parallel.tensor_parallel * parallel.pipeline_parallel
        )
        serial_floor = (
            cost_model.optimizer_step_time(params_per_gpu)
            + cost_model.gradient_sync_time(params_per_gpu)
            + cost_model.zero3_gather_time(params_per_gpu)
        )
        return (compute_floor + serial_floor) * (1.0 - LOWER_BOUND_SAFETY)

    def _lowering(self, workload: Workload, parallel: ParallelismConfig) -> _Lowering:
        """The memoized cost model and layer costs of a strategy."""
        key = (
            self.calibration, self.precision, workload.model,
            workload.sequence_length, workload.num_gpus,
            workload.micro_batch_size, parallel.per_micro_batch_key(),
        )
        lowering = _LOWERINGS.get(key)
        if lowering is not None:
            _LOWERINGS.move_to_end(key)
            return lowering
        cost_model = CostModel(
            model=workload.model,
            cluster=workload.cluster(),
            parallel=parallel.per_micro_batch(),
            batch_size=workload.micro_batch_size,
            calibration=self.calibration,
            precision=self.precision,
        )
        lowering = _Lowering(cost_model, cost_model.layer_costs(workload.sequence_length), {})
        _LOWERINGS[key] = lowering
        if len(_LOWERINGS) > _LOWERINGS_MAXSIZE:
            _LOWERINGS.popitem(last=False)
        return lowering

    def stage_execution(
        self,
        workload: Workload,
        parallel: ParallelismConfig,
        alpha: Optional[float] = None,
    ) -> StageExecution:
        """Lower one pipeline stage of a strategy to costs and a timeline.

        Builds the token-wise swap schedule (when the strategy's offload mode
        requires one) over the memoized cost model; the per-layer task list,
        the single-stage timeline of one micro-batch and the memory estimate
        follow on first read.  Memoized, so every global batch shares one
        execution.  Used by :meth:`_shared_evaluation` and the CLI.
        """
        cost_model, layer_costs, stages = self._lowering(workload, parallel)
        execution = stages.get(repr(alpha))
        if execution is not None:
            return execution
        parallel = cost_model.parallel
        model = cost_model.model
        node = cost_model.cluster.node
        layers_per_stage = parallel.layers_per_stage(model)
        pcie_bandwidth = (
            node.pcie.bandwidth_bytes_per_s
            * self.calibration.pcie_efficiency
            * PCIE_CONTENTION_FACTOR
        )

        schedule: Optional[SwapSchedule] = None
        effective_alpha = alpha
        if parallel.offload in (OffloadMode.TOKEN_WISE, OffloadMode.FULL):
            forced_alpha = 1.0 if parallel.offload is OffloadMode.FULL else alpha
            schedule = build_swap_schedule(
                model=model,
                batch_size=workload.micro_batch_size,
                sequence_length=parallel.local_sequence_length(workload.sequence_length),
                layer_forward_time_s=layer_costs.forward_total_s,
                pcie_bandwidth_bytes_per_s=pcie_bandwidth,
                host_capacity_bytes=node.cpu_memory_per_gpu_bytes,
                num_layers=layers_per_stage,
                alpha=forced_alpha,
                tensor_shards=parallel.tensor_parallel,
                precision=self.precision,
            )
            effective_alpha = schedule.alpha

        execution = StageExecution(
            cost_model=cost_model,
            layer_costs=layer_costs,
            sequence_length=workload.sequence_length,
            layers_per_stage=layers_per_stage,
            pcie_bandwidth_bytes_per_s=pcie_bandwidth,
            swap_schedule=schedule,
            effective_alpha=effective_alpha,
            boundary_compute_s=cost_model.embedding_classifier_time(workload.sequence_length),
            recompute=parallel.recompute,
        )
        stages[repr(alpha)] = execution
        return execution

    def _shared_evaluation(
        self,
        workload: Workload,
        parallel: ParallelismConfig,
        alpha: Optional[float],
        extra_serial_s: float = 0.0,
        activation_overhead_factor: Optional[float] = None,
    ) -> StrategyEvaluation:
        """Memory check plus iteration-time simulation shared by all systems.

        Subclasses call this after fixing the recompute/offload mode in
        ``parallel`` and choosing ``alpha`` (MEMO solves it, baselines pass 0).
        """
        model = workload.model
        cluster = workload.cluster()
        config = self.config
        overhead = (
            self.activation_overhead_factor
            if activation_overhead_factor is None
            else activation_overhead_factor
        )
        execution = self.stage_execution(workload, parallel, alpha)
        cost_model = execution.cost_model
        schedule = execution.swap_schedule
        effective_alpha = execution.effective_alpha
        if schedule is not None and not schedule.feasible:
            return StrategyEvaluation(
                feasible=False, iteration_time_s=float("inf"), reason="oohm",
                alpha=effective_alpha,
            )

        micro_iterations = max(workload.global_batch_samples // max(parallel.data_parallel, 1), 1)
        base_memory = _scale_activations(
            execution.base_memory, overhead, planned=self.uses_memory_planning,
        )
        params_per_gpu = model.num_parameters / (
            parallel.tensor_parallel * parallel.pipeline_parallel
        )

        def serial_overhead(memory: MemoryBreakdown) -> Tuple[int, float]:
            """Reorganisation count and per-iteration serial seconds.

            Allocator-reorganisation stalls: only systems without memory
            planning suffer them.  Every micro-batch churns the caching
            allocator, so the reorganisation count grows with both memory
            pressure and the number of micro-batches; each stall costs
            roughly the time to cudaFree and re-cudaMalloc the reserved
            segments (the paper observes 6 and 16 stalls per iteration at
            128K and 256K for the 7B model).  Monotone in ``memory``, which
            is what lets the unscaled footprint serve as a pruning floor.
            """
            reorganizations = 0
            reorg_stall = 0.0
            if not self.uses_memory_planning:
                pressure = memory.total_bytes / cluster.gpu.memory_bytes
                per_micro_batch = min(max((pressure - 0.35) * 2.5, 0.0), 2.0)
                reorganizations = int(round(per_micro_batch * micro_iterations))
                reserved = min(memory.total_bytes * 1.15, float(cluster.gpu.memory_bytes))
                per_stall = reserved / self.calibration.reorg_bandwidth_bytes_per_s
                reorg_stall = reorganizations * per_stall
            serial = (
                cost_model.optimizer_step_time(params_per_gpu)
                + cost_model.gradient_sync_time(params_per_gpu)
                + cost_model.zero3_gather_time(params_per_gpu)
                + reorg_stall
                + extra_serial_s
            )
            return reorganizations, serial

        def stage_costs_for(shape: Shape):
            # The stage's own swap traffic is already folded into the
            # per-layer spans by the single-stage executor, so the
            # offload/prefetch streams stay empty here -- passing the bytes
            # again would double-charge the PCIe link.
            kind, stages, _, chunks = shape
            return execution.stage_costs_for_shape(
                stages * chunks,
                kind.splits_backward,
                workload.sequence_length,
                activation_bytes_per_micro_batch=(
                    base_memory.skeletal_activation_bytes
                    + base_memory.rounding_buffer_bytes
                ),
                p2p_bytes=execution.p2p_hop.bytes,
            )

        def evaluate_with_schedule(
            schedule_kind: Optional[ScheduleKind],
            shape: Optional[Shape],
        ) -> StrategyEvaluation:
            pipeline_schedule: Optional[PipelineSchedule] = (
                build_candidate_schedule(shape, stage_costs_for) if shape is not None else None
            )
            memory = base_memory
            if pipeline_schedule is not None:
                memory = _scale_pipeline_in_flight(memory, pipeline_schedule)
            if not memory.fits(cluster.gpu.memory_bytes):
                return StrategyEvaluation(
                    feasible=False, iteration_time_s=float("inf"), reason="oom",
                    memory=memory, schedule_kind=schedule_kind,
                )
            if not memory.host_fits(cluster.node.cpu_memory_per_gpu_bytes):
                return StrategyEvaluation(
                    feasible=False, iteration_time_s=float("inf"), reason="oohm",
                    memory=memory, schedule_kind=schedule_kind,
                )

            timeline = execution.timeline
            reorganizations, per_iteration_serial = serial_overhead(memory)
            if shape is not None:
                work, costs = pipeline_schedule, stage_costs_for(shape)
            else:
                # A PP=1 point has no schedule to simulate or perturb: the
                # scorer takes its analytic compute time instead.
                bubble = parallel.pipeline_bubble_lower_bound()
                work, costs = micro_iterations * timeline.total_s / max(1.0 - bubble, 1e-9), None
            score = score_candidate(
                config, work, costs,
                p2p_bandwidth_bytes_per_s=execution.p2p_hop.bandwidth_bytes_per_s,
                pcie_bandwidth_bytes_per_s=execution.pcie_bandwidth_bytes_per_s,
                serial_s=per_iteration_serial,
                num_ranks=workload.num_gpus,
                gpus_per_node=cluster.node.gpus_per_node,
            )
            return StrategyEvaluation(
                feasible=True,
                iteration_time_s=score.score_s,
                reason=None,
                memory=memory,
                timeline=timeline,
                pipeline=score.timeline,
                alpha=effective_alpha,
                reorganizations=reorganizations,
                schedule_kind=schedule_kind,
                distribution=score.distribution,
                time_to_train=score.time_to_train,
            )

        candidates: List[Tuple[Optional[ScheduleKind], Optional[Shape]]] = [(None, None)]
        if parallel.pipeline_parallel > 1 and config.pipeline_schedule is not None:
            auto = config.pipeline_schedule == "auto"
            # The auto sweep tries *real* interleaving even when the system
            # was constructed with the default single chunk; num_layers caps
            # the chunk count so every virtual stage holds at least one layer.
            candidates = schedule_candidates(
                parallel,
                PIPELINE_SCHEDULE_CANDIDATES if auto else (config.pipeline_schedule,),
                micro_iterations,
                max(config.pipeline_chunks, 2) if auto else config.pipeline_chunks,
                num_layers=model.num_layers,
            )

        if _every_candidate_oom(base_memory, cluster.gpu.memory_bytes):
            # _scale_pipeline_in_flight only multiplies non-negative fields
            # by a factor > 1 (float rounding is monotone), so every
            # candidate is OOM; with no feasible incumbent the sweep would
            # prune nothing and keep the lowest-index verdict.  Return it
            # without bounding, building or simulating the others.
            return evaluate_with_schedule(*candidates[0])

        bounds = [
            pipeline_lower_bound_for_shape(
                *shape, stage_costs_for(shape),
                p2p_bandwidth_bytes_per_s=execution.p2p_hop.bandwidth_bytes_per_s,
            )
            if config.prune_schedule_sweep and shape is not None else None
            for _, shape in candidates
        ]
        # A candidate's iteration time is its schedule time plus serial
        # overhead, so its floor is the (safety-scaled, strictly
        # under-estimating) schedule bound plus the serial overhead of the
        # unscaled footprint -- the reorganisation stall only grows with the
        # in-flight count.
        best, evaluated, pruned = pruned_sweep(
            bounds,
            lambda index: evaluate_with_schedule(*candidates[index]),
            floor_offset=lambda: serial_overhead(base_memory)[1],
        )
        best.schedules_simulated = sum(
            candidate.pipeline is not None for candidate in evaluated
        )
        best.schedules_pruned = pruned
        return best


def _every_candidate_oom(base_memory: MemoryBreakdown, gpu_memory_bytes: float) -> bool:
    """Whether the unscaled footprint, hence every in-flight-scaled one, overflows."""
    return not base_memory.fits(gpu_memory_bytes)


def _scale_activations(memory: MemoryBreakdown, factor: float, planned: bool) -> MemoryBreakdown:
    """Apply a system-specific activation-overhead factor to a memory estimate."""
    if factor == 1.0 and not planned:
        return memory
    fragmentation = 0.0 if planned else memory.fragmentation_bytes * factor
    return MemoryBreakdown(
        parameter_bytes=memory.parameter_bytes,
        gradient_bytes=memory.gradient_bytes,
        optimizer_bytes=memory.optimizer_bytes,
        skeletal_activation_bytes=memory.skeletal_activation_bytes * factor,
        rounding_buffer_bytes=memory.rounding_buffer_bytes * factor,
        transient_bytes=memory.transient_bytes * factor,
        classifier_bytes=memory.classifier_bytes * factor,
        fragmentation_bytes=fragmentation,
        host_offload_bytes=memory.host_offload_bytes,
    )


def _scale_pipeline_in_flight(memory: MemoryBreakdown, schedule: PipelineSchedule) -> MemoryBreakdown:
    """Charge per-micro-batch state once per micro-batch the schedule holds in flight.

    Under a pipeline schedule a stage holds micro-batches between their
    forward and backward passes: each keeps its skeletal activations (or,
    for swapped systems, its resident rounding-buffer share and its host
    copy).  Transient tensors and the classifier working set are reused
    micro-batch by micro-batch and stay charged once.

    ``peak_in_flight`` counts chunk-level passes; each holds only
    1/num_chunks of the stage's per-micro-batch activations.  A zero-bubble
    schedule additionally pins a fraction of a micro-batch's skeletal bytes
    per deferred grad-weight op -- likewise a per-chunk stash, so a chunked
    split schedule (ZB-V, with two resident chunk stashes per rank) charges
    each deferred W 1/num_chunks of the full-micro-batch stash.  Activations
    peak on the first rank, weight stashes on the last, so the count is the
    max of the *combined* per-rank value.
    """
    peaks = schedule.peak_in_flight()
    stashes = schedule.peak_deferred_weights() if schedule.kind.splits_backward else None
    in_flight = max(
        (
            peaks[rank]
            + (ZB_WEIGHT_STASH_FRACTION * stashes[rank] if stashes is not None else 0.0)
        ) / schedule.num_chunks
        for rank in range(schedule.num_stages)
    )
    if in_flight <= 1:
        return memory
    return MemoryBreakdown(
        parameter_bytes=memory.parameter_bytes,
        gradient_bytes=memory.gradient_bytes,
        optimizer_bytes=memory.optimizer_bytes,
        skeletal_activation_bytes=memory.skeletal_activation_bytes * in_flight,
        rounding_buffer_bytes=memory.rounding_buffer_bytes * in_flight,
        transient_bytes=memory.transient_bytes,
        classifier_bytes=memory.classifier_bytes,
        fragmentation_bytes=memory.fragmentation_bytes,
        host_offload_bytes=memory.host_offload_bytes * in_flight,
    )


def _dominant_failure_reason(evaluations: List[StrategyEvaluation]) -> str:
    """Summarise why no strategy worked.

    GPU out-of-memory dominates; a pure host-memory exhaustion is reported as
    "oohm" (the paper's marker).  Reasons unrelated to memory (e.g. strategies
    excluded by a pinned configuration) are ignored.
    """
    reasons = {evaluation.reason for evaluation in evaluations if evaluation.reason}
    if "oom" in reasons:
        return "oom"
    if "oohm" in reasons:
        return "oohm"
    return "oom"
