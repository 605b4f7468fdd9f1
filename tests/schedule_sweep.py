"""A uniform-cost schedule sweep over :func:`repro.parallel.search.pruned_sweep`.

The training systems score each schedule candidate of a PP point on its real
per-stage costs and pick the winner with :func:`pruned_sweep`.  This helper
feeds the same loop from synthetic uniform per-chunk costs, so property tests
can check pruning on exhaustive lattices of cheap points: candidates come
from :func:`schedule_candidates`, are built with ``cached_build_schedule``,
scored with ``evaluate_schedule`` and, when asked, replicated under jitter
(``monte_carlo_timeline``) and walked under failures
(``simulate_time_to_train``).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from repro.parallel.search import (
    PIPELINE_SCHEDULE_CANDIDATES,
    SearchStats,
    pruned_sweep,
    schedule_candidates,
)
from repro.parallel.strategy import ParallelismConfig
from repro.sim.failures import (
    DEFAULT_RECOVERY,
    TTRAIN_OBJECTIVES,
    FailureSpec,
    RecoveryModel,
    simulate_time_to_train,
    ttrain_objective_base,
)
from repro.sim.fastpath import (
    cached_build_schedule,
    evaluate_schedule,
    pipeline_lower_bound_for_shape,
    wave_ratio_from_costs,
)
from repro.sim.pipeline import PipelineTimeline, StageCosts
from repro.sim.schedules import ScheduleKind
from repro.sim.stochastic import JitterSpec, monte_carlo_timeline


class ScoredSchedule(NamedTuple):
    """One evaluated candidate, in the shape :func:`pruned_sweep` reads."""

    kind: ScheduleKind
    timeline: PipelineTimeline
    iteration_time_s: float
    feasible: bool = True


def uniform_costs(
    chunks: int,
    forward_s: float,
    backward_s: float,
    p2p_time_s: float = 0.0,
    backward_weight_fraction: Optional[float] = None,
) -> StageCosts:
    """Per-chunk costs of a uniform stage; a P2P hop is one byte at ``1 / p2p_time_s``."""
    backward = backward_s / chunks
    return StageCosts(
        forward_s=forward_s / chunks,
        backward_s=backward,
        p2p_bytes=1.0 if p2p_time_s > 0 else 0.0,
        backward_weight_s=(
            None if backward_weight_fraction is None
            else backward_weight_fraction * backward
        ),
    )


def sweep_schedules(
    parallel: ParallelismConfig,
    forward_s: float,
    backward_s: float,
    num_micro_batches: Optional[int] = None,
    backward_weight_fraction: Optional[float] = None,
    p2p_time_s: float = 0.0,
    prune: bool = True,
    stats: Optional[SearchStats] = None,
    objective: str = "mean",
    jitter: Optional[JitterSpec] = None,
    replicas: int = 8,
    seed: int = 0,
    ci_halfwidth: Optional[float] = None,
    failures: Optional[FailureSpec] = None,
    recovery: RecoveryModel = DEFAULT_RECOVERY,
    target_iterations: int = 50,
) -> Tuple[ScheduleKind, PipelineTimeline]:
    """The winning ``(requested kind, deterministic timeline)`` of a PP point.

    Candidates compete on the deterministic makespan; with ``jitter`` on
    ``objective``'s makespan statistic over ``replicas`` draws; with
    ``failures`` on the ``ttrain_*`` objective of the checkpoint-restart
    walk over those samples.  ``prune=False`` gives every candidate a
    ``None`` floor, the unpruned in-order sweep.
    """
    candidates = schedule_candidates(
        parallel, PIPELINE_SCHEDULE_CANDIDATES, num_micro_batches, num_chunks=2,
    )
    costs = [
        uniform_costs(shape[3], forward_s, backward_s, p2p_time_s, backward_weight_fraction)
        for _, shape in candidates
    ]
    bandwidth = 1.0 / p2p_time_s if p2p_time_s > 0 else float("inf")
    base_objective = (
        ttrain_objective_base(objective) if objective in TTRAIN_OBJECTIVES else objective
    )

    def evaluate(index: int) -> ScoredSchedule:
        kind, shape = candidates[index]
        schedule = cached_build_schedule(
            *shape, wave_ratio=wave_ratio_from_costs(costs[index]),
        )
        timeline = evaluate_schedule(
            schedule, costs[index], p2p_bandwidth_bytes_per_s=bandwidth,
        )
        samples, score = (timeline.total_s,), timeline.total_s
        if jitter is not None:
            distribution = monte_carlo_timeline(
                schedule, costs[index], jitter, replicas=replicas, seed=seed,
                p2p_bandwidth_bytes_per_s=bandwidth,
                ci_halfwidth=ci_halfwidth, objective=base_objective,
            )
            samples, score = distribution.samples, distribution.score(base_objective)
        if failures is not None:
            score = simulate_time_to_train(
                samples, target_iterations, failures, recovery,
                num_ranks=parallel.total_gpus, replicas=replicas, seed=seed,
                ci_halfwidth=ci_halfwidth, objective=objective,
            ).score(objective)
        return ScoredSchedule(kind, timeline, score)

    bounds = [
        pipeline_lower_bound_for_shape(
            *shape, costs[index], p2p_bandwidth_bytes_per_s=bandwidth,
        ) if prune else None
        for index, (_, shape) in enumerate(candidates)
    ]
    best, evaluated, pruned = pruned_sweep(bounds, evaluate)
    if stats is not None:
        stats.schedules_simulated += len(evaluated)
        stats.schedules_pruned += pruned
    return best.kind, best.timeline
