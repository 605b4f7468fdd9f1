"""A frozen copy of the candidate scorer's composition before the one-sweep path.

Before a jittered candidate's deterministic run shared its Monte-Carlo sweep,
``score_candidate`` evaluated the schedule with ``evaluate_schedule``, then
``monte_carlo_timeline`` swept the same costs again for the deterministic
makespan and drew each replica as a ``StageCosts`` vector, scaling every
field by multipliers computed per stage in Python, and then the failure walk
ran over the draws.  This copy keeps that composition with the per-replica
scalar loop and the old per-stage perturbation, so tests can compare every
field of a ``CandidateScore``.  It shares only what the one-sweep path left
unchanged: the scalar executor, the lower bound, the replica budget, the
seeded generators and the failure walk.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.parallel.search import CandidateScore, SearchConfig
from repro.sim.failures import simulate_time_to_train
from repro.sim.fastpath import critical_path_timeline, evaluate_schedule, pipeline_lower_bound
from repro.sim.pipeline import StageCosts
from repro.sim.schedules import PipelineSchedule
from repro.sim.stochastic import (
    MIN_SEQUENTIAL_REPLICAS,
    JitterSpec,
    MakespanDistribution,
    ReplicaBudget,
    replica_rng,
)


def draw_variates(rng: np.random.Generator, num_ranks: int, num_stages: int):
    """One replica's raw draws: straggler uniforms, compute, link, swap normals."""
    return (
        rng.random(num_ranks), rng.random(num_ranks), rng.standard_normal((num_stages, 2)),
        rng.standard_normal(num_stages), rng.standard_normal((num_stages, 2)),
    )


def apply_variates(
    per_stage: Sequence[StageCosts], spec: JitterSpec,
    variates: Tuple[np.ndarray, ...], vs_rank: Sequence[int],
) -> Tuple[StageCosts, ...]:
    """Scale one replica's raw draws by ``spec`` and perturb ``per_stage``."""
    straggler_u, straggler_tail, compute_z, link_z, swap_z = variates
    if spec.is_null:
        return tuple(per_stage)
    rank_mult = [
        (1.0 - tail) ** (-1.0 / spec.straggler_alpha)
        if u < spec.straggler_prob else 1.0
        for u, tail in zip(straggler_u, straggler_tail)
    ]
    perturbed = []
    for index, stage in enumerate(per_stage):
        straggle = rank_mult[vs_rank[index]]
        forward_mult = math.exp(spec.compute_sigma * abs(compute_z[index, 0])) * straggle
        backward_mult = math.exp(spec.compute_sigma * abs(compute_z[index, 1])) * straggle
        link_mult = math.exp(spec.link_sigma * abs(link_z[index]))
        offload_mult = math.exp(spec.swap_sigma * abs(swap_z[index, 0]))
        prefetch_mult = math.exp(spec.swap_sigma * abs(swap_z[index, 1]))
        perturbed.append(StageCosts(
            forward_s=stage.forward_s * forward_mult,
            backward_s=stage.backward_s * backward_mult,
            p2p_bytes=stage.p2p_bytes * link_mult,
            offload_bytes=stage.offload_bytes * offload_mult,
            prefetch_bytes=stage.prefetch_bytes * prefetch_mult,
            recompute_s=stage.recompute_s * backward_mult,
            activation_bytes=stage.activation_bytes,
            backward_weight_s=(
                None if stage.backward_weight_s is None
                else stage.backward_weight_s * backward_mult
            ),
            weight_grad_bytes=stage.weight_grad_bytes,
        ))
    return tuple(perturbed)


def monte_carlo_timeline(
    schedule: PipelineSchedule,
    per_stage: Sequence[StageCosts],
    spec: JitterSpec,
    replicas: int,
    seed: int,
    p2p_bandwidth_bytes_per_s: float,
    pcie_bandwidth_bytes_per_s: float,
    ci_halfwidth,
    objective: str,
    min_replicas: int = MIN_SEQUENTIAL_REPLICAS,
) -> MakespanDistribution:
    """The scalar replica loop: one critical-path sweep per draw."""
    budget = ReplicaBudget(replicas, ci_halfwidth, objective, min_replicas)
    transfer = dict(
        p2p_bandwidth_bytes_per_s=p2p_bandwidth_bytes_per_s,
        pcie_bandwidth_bytes_per_s=pcie_bandwidth_bytes_per_s,
    )
    vs_rank = schedule.virtual_stage_ranks
    deterministic = critical_path_timeline(schedule, per_stage, **transfer)
    bound = pipeline_lower_bound(
        schedule, per_stage, p2p_bandwidth_bytes_per_s=p2p_bandwidth_bytes_per_s,
    )
    samples: List[float] = []
    bubbles: List[float] = []
    for replica in range(replicas):
        variates = draw_variates(replica_rng(seed, replica), max(vs_rank) + 1, len(per_stage))
        drawn = apply_variates(per_stage, spec, variates, vs_rank)
        timeline = critical_path_timeline(schedule, drawn, **transfer)
        samples.append(timeline.total_s)
        bubbles.append(timeline.bubble_fraction)
        if budget.stops(samples, 1):
            break
    return MakespanDistribution(
        samples=tuple(samples),
        bubble_samples=tuple(bubbles),
        deterministic_total_s=deterministic.total_s,
        lower_bound_s=bound,
        seed=seed,
        spec=spec,
        target_ci_halfwidth=ci_halfwidth,
    )


def score_candidate(
    config: SearchConfig,
    schedule: PipelineSchedule,
    per_stage: Sequence[StageCosts],
    p2p_bandwidth_bytes_per_s: float,
    pcie_bandwidth_bytes_per_s: float,
    serial_s: float,
    num_ranks: int,
    gpus_per_node: int,
) -> CandidateScore:
    """Evaluate, replicate under jitter, add ``serial_s``, walk failures."""
    distribution = time_to_train = None
    timeline = evaluate_schedule(
        schedule, per_stage,
        p2p_bandwidth_bytes_per_s=p2p_bandwidth_bytes_per_s,
        pcie_bandwidth_bytes_per_s=pcie_bandwidth_bytes_per_s,
    )
    compute_s = timeline.total_s
    if config.monte_carlo_active:
        distribution = monte_carlo_timeline(
            schedule, per_stage, config.jitter,
            replicas=config.monte_carlo_replicas,
            seed=config.monte_carlo_seed,
            p2p_bandwidth_bytes_per_s=p2p_bandwidth_bytes_per_s,
            pcie_bandwidth_bytes_per_s=pcie_bandwidth_bytes_per_s,
            ci_halfwidth=config.monte_carlo_ci_halfwidth,
            objective=config.base_objective,
        )
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
