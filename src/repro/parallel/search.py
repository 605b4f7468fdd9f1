"""Strategy search: enumerate legal parallelism configurations and pick the best.

Each training system (MEMO, Megatron-LM, DeepSpeed-Ulysses) exposes its own
search space -- e.g. DeepSpeed-Ulysses may only raise the Ulysses SP degree up
to the attention-head count, Megatron-LM may raise TP beyond a node at the
price of inter-node collectives.  The search enumerates the legal
configurations and evaluates each with a caller-supplied function (feasibility
plus iteration time), mirroring how the paper "manually adjusts the distributed
parallelism strategies for each system and each workload to achieve optimal
training performance".

Invariants of the pipeline-schedule scoring helpers:

* PP candidates are scored with a *simulated* schedule, never the analytic
  bubble formula; the schedule candidate set
  (:data:`PIPELINE_SCHEDULE_CANDIDATES`) covers 1F1B, interleaved-1F1B and
  the zero-bubble ZB-H1 and ZB-V;
* scoring runs on the critical-path fast evaluator by default
  (:func:`repro.sim.fastpath.evaluate_schedule`, memoized, or -- for a
  jittered candidate whose replicas batch -- row 0 of the Monte-Carlo
  sweep); the event engine is the opt-in ``engine="event"`` /
  ``validate=True`` oracle, and the two are bit-identical on makespan,
  bubble and peak memory -- the search may switch evaluators without
  changing any reported number;
* one pruned loop, :func:`pruned_sweep`, owns both levels of the search:
  each strategy's schedule sweep (candidates from
  :func:`schedule_candidates`, floored by
  :func:`repro.sim.fastpath.pipeline_lower_bound_for_shape`) and
  :func:`find_best_strategy`, whose per-strategy analytic floor skips whole
  parallelism points before any cost model is built or any schedule swept.
  A candidate whose floor cannot beat the incumbent is skipped without
  evaluation; pruning is conservative (the floor is a true lower bound) and
  therefore never changes the selected strategy, only the work spent
  finding it.  Pruned/evaluated counts at both levels are observable
  through :class:`SearchStats`;
* one scorer, :func:`score_candidate`, owns each candidate's scoring chain
  (schedule evaluation, jitter draws, serial overhead, the failure walk and
  the objective), and :func:`build_candidate_schedule` its ZB-V wave order;
  the systems' schedule sweep and ``repro sim-pipeline`` both call them;
* :func:`resolve_schedule_shape` is total over the sweeps' inputs:
  interleaving falls back to plain 1F1B when its structural constraints
  (divisibility, chunk counts) do not hold, and the sweeps degrade ZB-V to
  ZB-H1 via :func:`viable_schedule_kind` when the model cannot fill two
  V-placed chunks per rank -- the search must never throw on a legal
  parallelism point.  Only an *explicit* ZB-V request with an unsatisfiable chunk count
  or layer budget is rejected (:func:`resolve_schedule_shape` raises rather
  than silently capping the V placement away);
* ``micro_batches`` fed to a schedule is the replica's micro-iteration count
  (``global_batch // dp``), not the config placeholder, whenever the caller
  supplies it;
* a degenerate pipeline point (``micro_batches < pipeline_parallel``) warns
  once per search, not once per candidate (:func:`find_best_strategy` runs
  its sweep inside :func:`deduplicated_degenerate_warnings`).
"""

from __future__ import annotations

import contextlib
import json
import numbers
import warnings
from dataclasses import dataclass
from typing import (
    Callable, Iterable, Iterator, List, NamedTuple, Optional, Protocol, Sequence, Tuple, TypeVar,
    Union,
)

from repro.config import require_count
from repro.jsonutil import from_hex_float, hex_float

from repro.model.specs import ModelConfig
from repro.parallel.strategy import (
    DegenerateScheduleWarning,
    OffloadMode,
    ParallelismConfig,
    RecomputeMode,
)
from repro.sim.failures import (
    DEFAULT_RECOVERY,
    DEFAULT_TARGET_ITERATIONS,
    FailureSpec,
    RecoveryModel,
    TTRAIN_OBJECTIVES,
    TimeToTrainDistribution,
    parse_failure_spec,
    parse_recovery_spec,
    simulate_time_to_train,
    ttrain_objective_base,
)
from repro.sim.fastpath import cached_build_schedule, evaluate_schedule, wave_ratio_from_costs
from repro.sim.pipeline import PipelineTimeline, StageCosts
from repro.sim.schedules import PipelineSchedule, ScheduleKind, V_WAVE_CHUNKS
from repro.sim.stochastic import (
    DEFAULT_REPLICAS, JitterSpec, MakespanDistribution, RISK_OBJECTIVES, monte_carlo_timeline,
    parse_jitter_spec,
)

#: Schedule kinds a training system's strategy search may try for a PP
#: candidate (GPipe is omitted: it is dominated by 1F1B on both time and
#: memory and survives only as an explicit CLI/benchmark choice).
PIPELINE_SCHEDULE_CANDIDATES: Tuple[ScheduleKind, ...] = (
    ScheduleKind.ONE_F_ONE_B,
    ScheduleKind.INTERLEAVED,
    ScheduleKind.ZB_H1,
    ScheduleKind.ZB_V,
)


def viable_schedule_kind(
    kind: ScheduleKind, num_stages: int, num_layers: Optional[int],
) -> ScheduleKind:
    """The kind a candidate sweep should actually try for a PP point.

    ZB-V needs every rank to hold two V-placed chunks of at least one layer
    each; when the model cannot provide that, the sweep degrades to ZB-H1
    (the non-interleaved zero-bubble schedule) the way interleaving degrades
    to plain 1F1B -- keeping the search total over legal parallelism points,
    while an *explicit* ZB-V request through :func:`resolve_schedule_shape`
    still rejects the impossible placement loudly.
    """
    if (
        kind is ScheduleKind.ZB_V
        and num_layers is not None
        and num_layers // num_stages < V_WAVE_CHUNKS
    ):
        return ScheduleKind.ZB_H1
    return kind


@dataclass(frozen=True)
class StrategySearchSpace:
    """The set of strategy knobs a training system may turn.

    Attributes:
        tensor_parallel: candidate TP degrees.
        context_parallel: candidate CP degrees.
        ulysses_parallel: candidate Ulysses SP degrees.
        pipeline_parallel: candidate PP degrees.
        zero_stages: candidate ZeRO stages.
        recompute_modes: candidate recomputation modes.
        offload_modes: candidate offload modes.
        max_tensor_parallel_span_nodes: largest number of nodes a TP group may
            span (1 keeps TP inside NVLink domains; 2 allows the paper's
            TP=16-on-8-GPU-nodes fallback).
    """

    tensor_parallel: Sequence[int] = (1, 2, 4, 8)
    context_parallel: Sequence[int] = (1,)
    ulysses_parallel: Sequence[int] = (1,)
    pipeline_parallel: Sequence[int] = (1,)
    zero_stages: Sequence[int] = (0,)
    recompute_modes: Sequence[RecomputeMode] = (RecomputeMode.NONE, RecomputeMode.FULL)
    offload_modes: Sequence[OffloadMode] = (OffloadMode.NONE,)
    max_tensor_parallel_span_nodes: int = 2


#: The two pipeline evaluators; they report bit-identical numbers.
PIPELINE_ENGINES: Tuple[str, ...] = ("fast", "event")


@dataclass(frozen=True)
class SearchConfig:
    """Every knob of a training system's strategy search, declared once.

    The systems, a fleet grid's ``search`` section and the ``estimate`` /
    ``sim-pipeline`` flags all build one.  Construction parses the schedule
    name and the jitter, failure and recovery spec strings, and raises
    ``ValueError`` on any bad value, so each knob has one default, one rule
    and one message.  :func:`dataclasses.replace` derives a variant and
    re-validates it.
    """

    #: How PP candidates are executed and scored -- their iteration time
    #: comes from simulating this schedule (1F1B by default, the schedule
    #: Megatron-LM and DeepSpeed run).  ``"auto"`` simulates every candidate
    #: in :data:`PIPELINE_SCHEDULE_CANDIDATES` (1F1B, interleaved, ZB-H1,
    #: ZB-V) and keeps the fastest feasible one.  ``None`` falls back to the
    #: legacy analytic bubble formula.  A schedule name is parsed to its
    #: :class:`~repro.sim.schedules.ScheduleKind`.
    pipeline_schedule: Union[ScheduleKind, str, None] = ScheduleKind.ONE_F_ONE_B
    #: Virtual chunks per rank for interleaved-1F1B.
    pipeline_chunks: int = 1
    #: ``"fast"`` (memoized critical-path evaluator, the default) or
    #: ``"event"`` (discrete-event engine); the two report bit-identical
    #: numbers, so this only trades speed.
    pipeline_engine: str = "fast"
    #: Cross-check every fast-path evaluation against the event-engine
    #: oracle (slow; raises on any divergence).
    validate_pipeline: bool = False
    #: Skip schedule candidates whose analytic lower bound cannot beat the
    #: incumbent (on by default; the bound is conservative, so disabling this
    #: only slows the sweep, it never changes the selected strategy).
    prune_schedule_sweep: bool = True
    #: Order strategy candidates by their analytic floor
    #: (``TrainingSystem.strategy_lower_bound``) and skip whole parallelism
    #: points that provably cannot beat the best feasible candidate found so
    #: far -- before any cost model, stage executor or schedule sweep runs
    #: for them.  Like the schedule-level bound this is conservative and
    #: never changes the selected strategy, only the work spent finding it.
    prune_strategy_search: bool = True
    #: Perturbation model for risk-adjusted scoring -- a
    #: :class:`~repro.sim.stochastic.JitterSpec` or a spec string
    #: (:func:`~repro.sim.stochastic.parse_jitter_spec`, e.g.
    #: ``"compute=0.05,straggler=0.1:3"``).  ``None`` (or the null spec)
    #: keeps every reported number bit-identical to the deterministic search;
    #: a non-null spec replicates each PP candidate's pipeline schedule
    #: ``monte_carlo_replicas`` times under seeded perturbations and scores it
    #: with ``risk_objective``.  Every jitter multiplier is >= 1, so both
    #: pruning floors stay valid under any objective.
    jitter: Union[JitterSpec, str, None] = None
    #: Which makespan statistic competes -- ``"mean" | "p50" | "p95" | "p99"
    #: | "cvar"``, or a failure-adjusted ``"ttrain_mean" | "ttrain_p50" |
    #: "ttrain_p95" | "ttrain_p99" | "ttrain_cvar"`` objective scoring each
    #: candidate by the effective per-iteration time of a checkpoint-restart
    #: walk under the ``failures`` process
    #: (:func:`repro.sim.failures.simulate_time_to_train`); with a
    #: null/absent failure spec every ``ttrain_*`` objective degrades to its
    #: base statistic.
    risk_objective: str = "mean"
    #: Draws per candidate when jitter or failures are active.
    monte_carlo_replicas: int = DEFAULT_REPLICAS
    #: Base seed of the replica generators (a non-negative ``int``); a fixed
    #: seed makes the whole search reproducible bit for bit.
    monte_carlo_seed: int = 0
    #: Failure/preemption arrival process -- a
    #: :class:`~repro.sim.failures.FailureSpec` or a spec string
    #: (:func:`~repro.sim.failures.parse_failure_spec`, e.g.
    #: ``"mtbf=43200,correlated=0.3:8,preempt=21600:120"``).  ``None`` (or
    #: the null spec ``"0"``) keeps every reported number bit-identical to the
    #: failure-free run; a non-null spec attaches the winner's time-to-train
    #: distribution to the report and, under a ``ttrain_*`` objective, scores
    #: every candidate by it.
    failures: Union[FailureSpec, str, None] = None
    #: Checkpoint-restart costing -- a
    #: :class:`~repro.sim.failures.RecoveryModel` or a spec string
    #: (:func:`~repro.sim.failures.parse_recovery_spec`, e.g.
    #: ``"write=30,restart=300,elastic"``); ``None`` means
    #: :data:`~repro.sim.failures.DEFAULT_RECOVERY`.
    recovery: Union[RecoveryModel, str, None] = DEFAULT_RECOVERY
    #: Job length (iterations) of the time-to-train walk.
    target_iterations: int = DEFAULT_TARGET_ITERATIONS
    #: Variance-aware replica budgeting -- when set, Monte-Carlo replication
    #: per candidate stops as soon as the risk objective's 95% CI half-width
    #: (in iteration seconds) is under this bound, with
    #: ``monte_carlo_replicas`` as the hard cap; ``None`` keeps the
    #: fixed-replica behaviour.
    monte_carlo_ci_halfwidth: Optional[float] = None
    #: When positive, ``TrainingSystem.run`` additionally sweeps
    #: ``strategy_selection_stability`` over this many Monte-Carlo seeds and
    #: attaches the report.
    stability_replicas: int = 0

    def __post_init__(self) -> None:
        schedule = self.pipeline_schedule
        if isinstance(schedule, str) and schedule != "auto":
            object.__setattr__(self, "pipeline_schedule", ScheduleKind.from_name(schedule))
        elif not (schedule is None or schedule == "auto" or isinstance(schedule, ScheduleKind)):
            raise ValueError(
                f"pipeline_schedule must be a schedule name, 'auto' or None (got {schedule!r})"
            )
        if self.pipeline_engine not in PIPELINE_ENGINES:
            raise ValueError(
                f"unknown pipeline_engine {self.pipeline_engine!r}; expected 'fast' or 'event'"
            )
        for name in ("validate_pipeline", "prune_schedule_sweep", "prune_strategy_search"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool (got {getattr(self, name)!r})")
        if self.risk_objective not in RISK_OBJECTIVES + TTRAIN_OBJECTIVES:
            raise ValueError(
                f"unknown risk_objective {self.risk_objective!r}; "
                f"expected one of {RISK_OBJECTIVES + TTRAIN_OBJECTIVES}"
            )
        for name, low in (("pipeline_chunks", 1), ("monte_carlo_replicas", 1),
                          ("monte_carlo_seed", 0), ("target_iterations", 1),
                          ("stability_replicas", 0)):
            require_count(name, getattr(self, name), low)
        for name, kind, parse in (("jitter", JitterSpec, parse_jitter_spec),
                                  ("failures", FailureSpec, parse_failure_spec),
                                  ("recovery", RecoveryModel, parse_recovery_spec)):
            object.__setattr__(self, name, _parsed_spec(name, getattr(self, name), kind, parse))
        if self.recovery is None:
            object.__setattr__(self, "recovery", DEFAULT_RECOVERY)
        bound = self.monte_carlo_ci_halfwidth
        if bound is not None and (
            isinstance(bound, bool) or not isinstance(bound, numbers.Real) or not bound >= 0
        ):
            raise ValueError(f"monte_carlo_ci_halfwidth must be non-negative (got {bound!r})")

    @property
    def monte_carlo_active(self) -> bool:
        """Whether PP candidates are scored by replication rather than one run."""
        return self.jitter is not None and not self.jitter.is_null

    @property
    def failures_active(self) -> bool:
        """Whether the failure process contributes events at all."""
        return self.failures is not None and not self.failures.is_null

    @property
    def base_objective(self) -> str:
        """The makespan statistic underlying :attr:`risk_objective`."""
        if self.risk_objective in TTRAIN_OBJECTIVES:
            return ttrain_objective_base(self.risk_objective)
        return self.risk_objective

    @property
    def ttrain_objective(self) -> str:
        """The ``ttrain_*`` objective a time-to-train walk reports."""
        return "ttrain_" + self.base_objective

    @property
    def ttrain_scoring(self) -> bool:
        """Whether candidates compete on failure-adjusted time-to-train."""
        return self.failures_active and self.risk_objective in TTRAIN_OBJECTIVES


def _parsed_spec(name: str, value: object, kind: type, parse: Callable[[str], object]):
    """``value`` if it is ``None`` or a ``kind``, else parsed from its spec string."""
    if value is None or isinstance(value, kind):
        return value
    if not isinstance(value, str):
        raise ValueError(
            f"{name} must be a {kind.__name__}, a spec string or None (got {value!r})"
        )
    try:
        return parse(value)
    except ValueError as error:
        raise ValueError(f"{name}: {error}") from None


@dataclass(frozen=True)
class EvaluatedStrategy:
    """A strategy together with its evaluation outcome."""

    parallel: ParallelismConfig
    feasible: bool
    iteration_time_s: float
    failure_reason: Optional[str] = None


@dataclass
class SearchStats:
    """Observable work counters of one search.

    Two levels of pruning, both conservative by construction (true lower
    bounds plus index tie-breaking, so neither can change the selected
    strategy):

    * ``schedules_pruned`` counts *schedule* candidates skipped inside one
      strategy's sweep because their analytic lower bound could not beat the
      sweep's incumbent;
    * ``strategies_pruned`` counts whole *parallelism points* skipped by
      :func:`find_best_strategy` because their per-strategy analytic floor
      (FLOPs/bandwidth compute plus serial overhead) could not beat the best
      feasible candidate found so far -- those strategies never build a cost
      model, never run the stage executor and never sweep a single schedule.
    """

    schedules_simulated: int = 0
    schedules_pruned: int = 0
    strategies_evaluated: int = 0
    strategies_pruned: int = 0
    pareto_frontier: Optional["ParetoFrontier"] = None

    def add(self, other: "SearchStats") -> None:
        """Accumulate another sweep's counters into this one.

        Counters accumulate; the frontier does not -- it describes one
        search's candidate set, so the merged stats keep the first non-empty
        frontier seen (replicated searches all produce the same one).
        """
        self.schedules_simulated += other.schedules_simulated
        self.schedules_pruned += other.schedules_pruned
        self.strategies_evaluated += other.strategies_evaluated
        self.strategies_pruned += other.strategies_pruned
        if self.pareto_frontier is None:
            self.pareto_frontier = other.pareto_frontier


@dataclass(frozen=True)
class ParetoPoint:
    """One feasible strategy's coordinates in the trade-off space.

    The three minimised axes are iteration time, peak per-GPU device memory
    and per-GPU host-offload traffic -- the quantities a fleet planner
    trades against each other when the fastest plan does not fit a target
    fleet's memory or host-link budget.
    """

    parallel: ParallelismConfig
    iteration_time_s: float
    peak_memory_bytes: float
    host_offload_bytes: float
    schedule_kind: Optional[ScheduleKind] = None
    is_winner: bool = False

    def dominates(self, other: "ParetoPoint") -> bool:
        """Weak domination: no-worse on every axis, strictly better on one."""
        if (
            self.iteration_time_s > other.iteration_time_s
            or self.peak_memory_bytes > other.peak_memory_bytes
            or self.host_offload_bytes > other.host_offload_bytes
        ):
            return False
        return (
            self.iteration_time_s < other.iteration_time_s
            or self.peak_memory_bytes < other.peak_memory_bytes
            or self.host_offload_bytes < other.host_offload_bytes
        )

    def to_json_dict(self) -> dict:
        """Plain-JSON mapping with exact hex-float coordinates."""
        return {
            "parallel": self.parallel.to_json_dict(),
            "iteration_time_s": hex_float(self.iteration_time_s),
            "peak_memory_bytes": hex_float(self.peak_memory_bytes),
            "host_offload_bytes": hex_float(self.host_offload_bytes),
            "schedule_kind": (
                self.schedule_kind.value if self.schedule_kind is not None else None
            ),
            "is_winner": self.is_winner,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ParetoPoint":
        """Inverse of :meth:`to_json_dict`."""
        kind = data["schedule_kind"]
        return cls(
            parallel=ParallelismConfig.from_json_dict(data["parallel"]),
            iteration_time_s=from_hex_float(data["iteration_time_s"]),
            peak_memory_bytes=from_hex_float(data["peak_memory_bytes"]),
            host_offload_bytes=from_hex_float(data["host_offload_bytes"]),
            schedule_kind=None if kind is None else ScheduleKind.from_name(kind),
            is_winner=data["is_winner"],
        )


@dataclass(frozen=True)
class ParetoFrontier:
    """Non-dominated feasible strategies, ordered fastest first.

    ``points[0]`` (the time-optimal corner) is always the search's argmax
    winner: the winner is exempt from domination so the frontier can never
    contradict the selected strategy, even when another candidate ties its
    iteration time with strictly less memory (the argmax breaks such ties
    by candidate order, which is a pruning-invariance guarantee this module
    must not disturb).  All other points are mutually non-dominated and
    not dominated by any candidate.
    """

    points: Tuple[ParetoPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[ParetoPoint]:
        return iter(self.points)

    def to_json_dict(self) -> dict:
        """Plain-JSON mapping preserving frontier order."""
        return {"points": [point.to_json_dict() for point in self.points]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ParetoFrontier":
        """Inverse of :meth:`to_json_dict` -- compares ``==`` to the original."""
        return cls(points=tuple(
            ParetoPoint.from_json_dict(point) for point in data["points"]
        ))

    def to_json(self) -> str:
        """Stable (sorted-keys) JSON string of :meth:`to_json_dict`."""
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ParetoFrontier":
        """Inverse of :meth:`to_json`."""
        return cls.from_json_dict(json.loads(text))


def pareto_frontier(
    points: Sequence[ParetoPoint],
    winner: Optional[ParallelismConfig] = None,
) -> ParetoFrontier:
    """Filter feasible candidate points down to the non-dominated frontier.

    ``winner`` marks the search's argmax strategy: its point is kept
    unconditionally (and flagged ``is_winner``) so the frontier's
    time-optimal corner always equals the selected strategy.  Remaining
    points survive only if no other candidate dominates them; candidates
    with byte-for-byte identical coordinates collapse to one representative
    (the winner if it is among them, else the earliest in input order --
    the same tie-break :func:`find_best_strategy` uses).  Ordering is
    ``(iteration time, winner first, input order)``, which is deterministic
    and puts the winner at index 0 -- it has the minimal feasible time by
    construction, and the tie-break favours it over an equal-time point.
    """
    tagged = [
        ParetoPoint(
            parallel=point.parallel,
            iteration_time_s=point.iteration_time_s,
            peak_memory_bytes=point.peak_memory_bytes,
            host_offload_bytes=point.host_offload_bytes,
            schedule_kind=point.schedule_kind,
            is_winner=(winner is not None and point.parallel == winner),
        )
        for point in points
    ]

    def coords(point: ParetoPoint) -> Tuple[float, float, float]:
        return (
            point.iteration_time_s,
            point.peak_memory_bytes,
            point.host_offload_bytes,
        )

    surviving = []
    for index, point in enumerate(tagged):
        if not point.is_winner:
            if any(other.dominates(point) for other in tagged if other is not point):
                continue
            duplicated = any(
                coords(other) == coords(point)
                and (other.is_winner or (not point.is_winner and earlier < index))
                for earlier, other in enumerate(tagged)
                if other is not point
            )
            if duplicated:
                continue
        surviving.append(point)
    order = {id(point): index for index, point in enumerate(tagged)}
    surviving.sort(
        key=lambda point: (
            point.iteration_time_s,
            not point.is_winner,
            order[id(point)],
        )
    )
    return ParetoFrontier(points=tuple(surviving))


#: Nesting depth of :func:`deduplicated_degenerate_warnings` -- the
#: outermost context owns the recording and re-emit; inner contexts are
#: transparent, so replicated searches (one full search per Monte-Carlo
#: draw) still warn once per *outer* search, not once per replica.
_degenerate_dedup_depth = 0


@contextlib.contextmanager
def deduplicated_degenerate_warnings() -> Iterator[None]:
    """Deduplicate :class:`DegenerateScheduleWarning` across a search.

    Evaluating a candidate may rebuild its :class:`ParallelismConfig` (e.g.
    to pin recompute/offload modes), which would otherwise re-emit one
    warning per candidate -- and Monte-Carlo replication multiplies that by
    the replica count.  Inside the context, warnings are recorded rather
    than shown (``record=True`` without touching the filter state, so caller
    filters like ``-W error`` still act immediately); on exit -- even via an
    exception -- the recorded warnings are re-emitted with the first
    :class:`DegenerateScheduleWarning` kept and its repeats dropped; all
    other warnings pass through untouched.

    The context is re-entrant: a search nested inside another (a replicated
    stability sweep running :func:`find_best_strategy` once per draw) joins
    the outermost context instead of opening its own recording scope, so the
    dedup is once per *outer* search, never once per replica.
    """
    global _degenerate_dedup_depth
    if _degenerate_dedup_depth > 0:
        _degenerate_dedup_depth += 1
        try:
            yield
        finally:
            _degenerate_dedup_depth -= 1
        return
    _degenerate_dedup_depth += 1
    caught: List[warnings.WarningMessage] = []
    try:
        with warnings.catch_warnings(record=True) as recorded:
            try:
                yield
            finally:
                caught.extend(recorded)
    finally:
        _degenerate_dedup_depth -= 1
        degenerate_warned = False
        for entry in caught:
            if issubclass(entry.category, DegenerateScheduleWarning):
                if degenerate_warned:
                    continue
                degenerate_warned = True
            warnings.warn_explicit(entry.message, entry.category, entry.filename, entry.lineno)


def prune_evaluation_order(bounds: Sequence[float]) -> List[int]:
    """Candidate indices in ascending-(bound, index) order.

    The evaluation order of :func:`pruned_sweep`: evaluating the best-bound
    candidate first maximises what the incumbent can prune, while the
    original index breaks ties so that, together with :func:`cannot_beat`,
    the selected candidate is provably the same as an in-order sweep's.
    """
    return sorted(range(len(bounds)), key=lambda index: (bounds[index], index))


def cannot_beat(bound: Optional[float], incumbent_total: Optional[float]) -> bool:
    """Whether a candidate's lower bound proves it cannot win.

    The bound is safety-scaled strictly below the candidate's true time
    (:data:`repro.sim.fastpath.LOWER_BOUND_SAFETY`), so ``bound >=
    incumbent`` implies the candidate is *strictly* slower and can change
    neither the argmin nor an exact tie.  A zero bound proves nothing (the
    scaling is only strict for positive bounds) and never prunes.
    """
    return (
        bound is not None and bound > 0.0
        and incumbent_total is not None and bound >= incumbent_total
    )


class Scored(Protocol):
    """What :func:`pruned_sweep` reads of an evaluated candidate."""

    feasible: bool
    iteration_time_s: float


_Result = TypeVar("_Result", bound=Scored)


def pruned_sweep(
    bounds: Sequence[Optional[float]],
    evaluate: Callable[[int], _Result],
    floor_offset: Optional[Callable[[], float]] = None,
) -> Tuple[Optional[_Result], List[_Result], int]:
    """The argmin over candidates ``0 .. len(bounds) - 1``, pruned by their floors.

    The one pruned candidate loop of the search: the schedule sweep of a
    strategy (:meth:`repro.systems.base.TrainingSystem._shared_evaluation`)
    and the strategy search (:func:`find_best_strategy`) both run it.

    Candidates are evaluated in ascending-(bound, index) order
    (:func:`prune_evaluation_order`, a ``None`` bound sorting as zero).  Once
    a feasible incumbent exists, a candidate whose positive bound plus
    ``floor_offset()`` :func:`cannot_beat` the incumbent's time is skipped
    without evaluation; the offset is computed at most once, on the first
    such check, and defaults to zero.  ``evaluate(index)`` returns a result
    with ``feasible`` and ``iteration_time_s``.

    The winner is the feasible result with the lowest ``(time, index)``;
    with none feasible nothing can be pruned and it is index 0's verdict.
    Ties keep the lowest index, so -- as long as each bound plus the offset
    is a true lower bound -- the winner is the one an unpruned in-order
    sweep picks (property-tested at both levels).

    Returns:
        ``(best, evaluated, pruned)``: the winner (``None`` only when there
        are no candidates), every evaluated result in evaluation order and
        the number of candidates pruned.
    """
    offset: Optional[float] = None
    best: Optional[_Result] = None
    best_index = -1
    evaluated: List[_Result] = []
    pruned = 0
    for index in prune_evaluation_order(
        [bound if bound is not None else 0.0 for bound in bounds]
    ):
        bound = bounds[index]
        if bound is not None and bound > 0.0 and best is not None and best.feasible:
            if offset is None:
                offset = floor_offset() if floor_offset is not None else 0.0
            if cannot_beat(bound + offset, best.iteration_time_s):
                pruned += 1
                continue
        result = evaluate(index)
        evaluated.append(result)
        if best is None or _sweep_rank(result, index) < _sweep_rank(best, best_index):
            best, best_index = result, index
    return best, evaluated, pruned


def _sweep_rank(result: Scored, index: int) -> Tuple[bool, float, int]:
    """Sort key of :func:`pruned_sweep`: feasible first, then time, then index."""
    if result.feasible:
        return False, result.iteration_time_s, index
    return True, 0.0, index


#: A resolved schedule shape, ``(kind, stages, micro_batches, chunks)``
#: (:func:`resolve_schedule_shape`).
Shape = Tuple[ScheduleKind, int, int, int]


def build_candidate_schedule(
    shape: Shape,
    stage_costs: Callable[[Shape], Union[StageCosts, Sequence[StageCosts]]],
) -> PipelineSchedule:
    """Build a candidate's schedule, ordering a ZB-V wave by the candidate's costs.

    ZB-V's wavefront order depends on the candidate's real F : B_input : W
    durations (:func:`repro.sim.fastpath.wave_ratio_from_costs`); the costs
    depend only on the shape, so ``stage_costs(shape)`` is asked for ZB-V
    alone.  Block placements ignore the ratio.
    """
    ratio = wave_ratio_from_costs(stage_costs(shape)) if shape[0] is ScheduleKind.ZB_V else None
    return cached_build_schedule(*shape, wave_ratio=ratio)


class CandidateScore(NamedTuple):
    """What :func:`score_candidate` reports for one candidate."""

    #: The deterministic pipeline timeline; ``None`` for a PP=1 point.
    timeline: Optional[PipelineTimeline]
    #: The jittered makespans, when jitter is active.
    distribution: Optional[MakespanDistribution]
    #: The checkpoint-restart walk, when failures are active.
    time_to_train: Optional[TimeToTrainDistribution]
    #: The iteration time the candidate competes with.
    score_s: float


def score_candidate(
    config: SearchConfig,
    schedule: Union[PipelineSchedule, float],
    stage_costs: Union[StageCosts, Sequence[StageCosts], None],
    p2p_bandwidth_bytes_per_s: float,
    pcie_bandwidth_bytes_per_s: float,
    serial_s: float,
    num_ranks: int,
    gpus_per_node: int,
) -> CandidateScore:
    """Score one candidate under ``config``; the systems' schedule sweep and
    ``repro sim-pipeline`` both run it.

    In order: evaluate the schedule on its stage costs (a PP=1 point passes
    its analytic compute seconds as ``schedule`` instead); under jitter,
    replicate it with seeded perturbations and take the base objective's
    statistic -- when the replicas batch (the fast engine, no validation,
    more than one replica), one sweep scores the unperturbed costs as row 0
    and its timeline stands in for the evaluation, so a jittered candidate
    never enters the timeline cache; add ``serial_s``, the per-iteration
    serial overhead (``sim-pipeline`` passes ``0.0``, and ``s + 0.0 == s``
    for ``s >= 0``);
    under failures, walk the checkpoint-restart process over each draw's
    iteration time and, under a ``ttrain_*`` objective, score the walk.
    Every jitter multiplier is >= 1 and every walk sample >= the ideal time,
    so the score never falls below the deterministic iteration time and both
    pruning floors stay conservative under any objective.
    """
    timeline = distribution = time_to_train = None
    compute_s = schedule
    if isinstance(schedule, PipelineSchedule):
        # Replicas that batch on the fast path share their sweep with the
        # deterministic run (row 0); otherwise the schedule is evaluated first.
        one_sweep = (
            config.monte_carlo_active and config.monte_carlo_replicas > 1
            and config.pipeline_engine == "fast" and not config.validate_pipeline
        )
        if not one_sweep:
            timeline = evaluate_schedule(
                schedule, stage_costs,
                p2p_bandwidth_bytes_per_s=p2p_bandwidth_bytes_per_s,
                pcie_bandwidth_bytes_per_s=pcie_bandwidth_bytes_per_s,
                engine=config.pipeline_engine,
                validate=config.validate_pipeline,
            )
            compute_s = timeline.total_s
        if config.monte_carlo_active:
            distribution = monte_carlo_timeline(
                schedule, stage_costs, config.jitter,
                replicas=config.monte_carlo_replicas,
                seed=config.monte_carlo_seed,
                p2p_bandwidth_bytes_per_s=p2p_bandwidth_bytes_per_s,
                pcie_bandwidth_bytes_per_s=pcie_bandwidth_bytes_per_s,
                validate=config.validate_pipeline,
                ci_halfwidth=config.monte_carlo_ci_halfwidth,
                objective=config.base_objective,
            )
            if one_sweep:
                timeline = distribution.deterministic_timeline
            compute_s = distribution.score(config.base_objective)
    score_s = compute_s + serial_s
    if config.failures_active:
        time_to_train = simulate_time_to_train(
            tuple(s + serial_s for s in distribution.samples)
            if distribution is not None else (score_s,),
            config.target_iterations,
            config.failures,
            config.recovery,
            num_ranks=num_ranks,
            replicas=config.monte_carlo_replicas,
            seed=config.monte_carlo_seed,
            gpus_per_node=gpus_per_node,
            ci_halfwidth=config.monte_carlo_ci_halfwidth,
            objective=config.ttrain_objective,
        )
        if config.ttrain_scoring:
            score_s = time_to_train.score(config.risk_objective)
    return CandidateScore(timeline, distribution, time_to_train, score_s)


def enumerate_strategies(
    space: StrategySearchSpace,
    model: ModelConfig,
    num_gpus: int,
    gpus_per_node: int = 8,
    global_batch_samples: Optional[int] = None,
) -> List[ParallelismConfig]:
    """All legal strategy combinations for a model on a given GPU count.

    Args:
        global_batch_samples: when given, each candidate's ``micro_batches``
            is the number of micro-iterations its replicas actually run
            (``global_batch // dp``), which is what the pipeline schedules
            operate on; otherwise the legacy ``max(dp, 1)`` placeholder is
            kept.

    Degenerate PP points (``micro_batches < pipeline_parallel``) are
    enumerated without emitting :class:`DegenerateScheduleWarning` -- the
    search scores them with their (poor) simulated bubble, which is the
    warning's message in quantitative form.
    """
    if num_gpus <= 0:
        raise ValueError("num_gpus must be positive")
    candidates: List[ParallelismConfig] = []
    for tp in space.tensor_parallel:
        if tp > num_gpus:
            continue
        if tp > gpus_per_node * space.max_tensor_parallel_span_nodes:
            continue
        for cp in space.context_parallel:
            for ulysses in space.ulysses_parallel:
                heads_split = tp * ulysses
                if model.num_heads % heads_split != 0:
                    continue
                for pp in space.pipeline_parallel:
                    if model.num_layers % pp != 0:
                        continue
                    model_parallel = tp * cp * ulysses * pp
                    if model_parallel > num_gpus or num_gpus % model_parallel != 0:
                        continue
                    dp = num_gpus // model_parallel
                    for zero in space.zero_stages:
                        # ZeRO shards states over the ranks holding identical
                        # parameters (DP x CP x Ulysses); when that group is a
                        # single rank the stage is a no-op, so keep only the
                        # lowest stage to avoid duplicate evaluations.
                        zero_group = dp * cp * ulysses
                        if zero > 0 and zero_group == 1 and zero != min(space.zero_stages):
                            continue
                        if global_batch_samples is None:
                            micro_batches = max(dp, 1)
                        else:
                            micro_batches = max(global_batch_samples // max(dp, 1), 1)
                        for recompute in space.recompute_modes:
                            for offload in space.offload_modes:
                                with warnings.catch_warnings():
                                    warnings.simplefilter(
                                        "ignore", DegenerateScheduleWarning,
                                    )
                                    candidate = ParallelismConfig(
                                        tensor_parallel=tp,
                                        context_parallel=cp,
                                        ulysses_parallel=ulysses,
                                        pipeline_parallel=pp,
                                        data_parallel=dp,
                                        zero_stage=zero,
                                        recompute=recompute,
                                        offload=offload,
                                        micro_batches=micro_batches,
                                    )
                                candidates.append(candidate)
    return candidates


def resolve_schedule_shape(
    parallel: ParallelismConfig,
    schedule_kind: ScheduleKind,
    num_micro_batches: Optional[int] = None,
    num_chunks: int = 1,
    num_layers: Optional[int] = None,
) -> Shape:
    """The ``(kind, stages, micro_batches, chunks)`` a PP candidate would run.

    Interleaving silently falls back to plain 1F1B when Megatron's
    ``m % p == 0`` constraint does not hold for this candidate (or fewer than
    two chunks were requested).  ZB-H1 is defined on the non-interleaved
    pipeline, so a chunk request is ignored for it.  When the model's
    ``num_layers`` is given, the chunk count is capped so every virtual
    stage holds at least one layer -- over-asking degrades, never throws.
    No op list is built: candidate loops use the shape for lower-bound
    pruning and :func:`build_candidate_schedule` materialises only the
    schedules that survive.

    ZB-V is the one kind whose chunk count is structural rather than tunable:
    the V placement folds exactly :data:`~repro.sim.schedules.V_WAVE_CHUNKS`
    chunks per rank, so a request for any other chunk count -- or a model
    whose layers cannot give every virtual stage at least one layer -- is
    *rejected* with :class:`ValueError` instead of being silently capped to a
    non-V schedule.  Candidate sweeps that must stay total pre-degrade the
    kind with :func:`viable_schedule_kind`.
    """
    micro_batches = parallel.micro_batches if num_micro_batches is None else num_micro_batches
    stages = parallel.pipeline_parallel
    if schedule_kind is ScheduleKind.ZB_V:
        if num_chunks not in (1, V_WAVE_CHUNKS):
            raise ValueError(
                f"zb-v runs exactly {V_WAVE_CHUNKS} V-placed chunks per rank; "
                f"a chunk request of {num_chunks} cannot be satisfied"
            )
        if num_layers is not None and num_layers // stages < V_WAVE_CHUNKS:
            raise ValueError(
                f"zb-v needs {V_WAVE_CHUNKS} chunks of >= 1 layer per rank, but "
                f"{num_layers} layers over {stages} stages leave only "
                f"{num_layers // stages}; use zb-h1 for this pipeline"
            )
        return schedule_kind, stages, micro_batches, V_WAVE_CHUNKS
    chunks = num_chunks if schedule_kind is ScheduleKind.INTERLEAVED else 1
    if num_layers is not None:
        chunks = min(chunks, max(num_layers // stages, 1))
    if schedule_kind is ScheduleKind.INTERLEAVED and (
        chunks < 2 or (stages > 1 and micro_batches % stages != 0)
    ):
        schedule_kind, chunks = ScheduleKind.ONE_F_ONE_B, 1
    return schedule_kind, stages, micro_batches, chunks


def schedule_candidates(
    parallel: ParallelismConfig,
    kinds: Sequence[ScheduleKind],
    num_micro_batches: Optional[int] = None,
    num_chunks: int = 1,
    num_layers: Optional[int] = None,
) -> List[Tuple[ScheduleKind, Shape]]:
    """The ``(requested kind, resolved shape)`` pairs a schedule sweep evaluates.

    Each kind is first degraded with :func:`viable_schedule_kind` (the sweep
    must stay total over legal parallelism points, while an explicit
    :func:`resolve_schedule_shape` call rejects an impossible ZB-V) and then
    resolved to its shape -- shapes, not built schedules, so pruned
    candidates never materialise op lists.  ``num_chunks`` tunes
    interleaving only: ZB-V's chunk count is structural and does not inherit
    it.  Kinds resolving to an already listed ``(kind, chunks)`` shape (e.g.
    interleaved falling back to plain 1F1B) are dropped, so the first
    request of each shape is kept.
    """
    candidates = []
    seen = set()
    for kind in kinds:
        viable = viable_schedule_kind(kind, parallel.pipeline_parallel, num_layers)
        shape = resolve_schedule_shape(
            parallel, viable, num_micro_batches,
            1 if viable is ScheduleKind.ZB_V else num_chunks, num_layers,
        )
        if (shape[0], shape[3]) not in seen:
            seen.add((shape[0], shape[3]))
            candidates.append((kind, shape))
    return candidates


def find_best_strategy(
    candidates: Iterable[ParallelismConfig],
    evaluate: Callable[[ParallelismConfig], Tuple[bool, float, Optional[str]]],
    strategy_bound: Optional[Callable[[ParallelismConfig], Optional[float]]] = None,
    stats: Optional[SearchStats] = None,
) -> Tuple[Optional[EvaluatedStrategy], List[EvaluatedStrategy]]:
    """Evaluate every candidate and return the fastest feasible one.

    Args:
        evaluate: maps a strategy to ``(feasible, iteration_time_s, reason)``;
            the reason describes why an infeasible strategy failed (OOM,
            host OOM, illegal degree, ...).
        strategy_bound: optional per-strategy analytic floor -- a *true lower
            bound* on the iteration time ``evaluate`` would report for the
            candidate (safety-scaled strictly below it, like
            :data:`repro.sim.fastpath.LOWER_BOUND_SAFETY`; ``None``/zero
            proves nothing).  When given, candidates are evaluated in
            ascending-(floor, index) order and a candidate whose floor cannot
            beat the best feasible time found so far is skipped entirely --
            no cost model, no stage executor, no schedule sweep.  Ties on
            iteration time keep the lowest original index, so the selected
            strategy is provably the one an exhaustive in-order sweep would
            pick (property-tested on an exhaustive lattice).
        stats: accumulator for ``strategies_evaluated`` /
            ``strategies_pruned`` counters.

    Degenerate-schedule warnings are deduplicated across the whole search
    via :func:`deduplicated_degenerate_warnings`: the first such warning is
    re-emitted once, the repeats are swallowed; all other warnings pass
    through untouched.  The context is re-entrant, so a replicated sweep
    wrapping several searches in one outer context still warns exactly once.

    Returns:
        ``(best, evaluated)`` where ``best`` is None when no candidate is
        feasible (the workload OOMs under every configuration).  Pruned
        candidates do not appear in ``evaluated`` -- they were never
        evaluated; only the counters record them.
    """
    ordered = list(candidates)
    bounds: List[Optional[float]] = [None] * len(ordered)
    if strategy_bound is not None:
        bounds = [strategy_bound(candidate) for candidate in ordered]

    def evaluate_index(index: int) -> EvaluatedStrategy:
        return EvaluatedStrategy(ordered[index], *evaluate(ordered[index]))

    with deduplicated_degenerate_warnings():
        best, evaluated, pruned = pruned_sweep(bounds, evaluate_index)
    if stats is not None:
        stats.strategies_evaluated += len(evaluated)
        stats.strategies_pruned += pruned
    return (best if best is not None and best.feasible else None), evaluated
