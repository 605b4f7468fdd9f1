"""The one-sweep scorer: a jittered candidate's deterministic run and every
replica come from one batched critical-path sweep.

Row 0 of that sweep holds the unperturbed costs and rows 1..R the products of
the candidate's cost columns and memoized multiplier planes.  Everything it
reports must be bit-identical to the composition it replaced: a scalar
evaluation, a scalar deterministic sweep, and one ``StageCosts`` vector per
replica (``tests/frozen_scorer.py``).
"""

from __future__ import annotations

import re
import warnings
from dataclasses import fields

import pytest
from hypothesis import assume, given, settings, strategies as st

import frozen_scorer
from repro.fleet import WorkloadGrid, plan_fleet
from repro.parallel.search import SearchConfig, score_candidate
from repro.sim.failures import TTRAIN_OBJECTIVES
from repro.sim.fastpath import (
    CostPlanes,
    cached_build_schedule,
    clear_fastpath_caches,
    evaluate_schedule,
    fastpath_cache_info,
)
from repro.sim.pipeline import PipelineTimeline, StageCosts
from repro.sim.schedules import ScheduleKind, WAVE_RATIO_BUCKETS, WaveRatio
from repro.sim.stochastic import (
    RISK_OBJECTIVES,
    JitterRangeError,
    JitterSpec,
    _jittered_planes,
    _replica_multipliers,
    monte_carlo_timeline,
    perturb_stage_costs,
    replica_rng,
)

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


@st.composite
def schedules(draw):
    """A canonical schedule of any kind, block, interleaved or V placed."""
    kind = draw(st.sampled_from(list(ScheduleKind)))
    p = draw(st.integers(min_value=1, max_value=4))
    ratio = None
    if kind is ScheduleKind.INTERLEAVED:
        v = draw(st.integers(min_value=2, max_value=3))
        m = p * draw(st.integers(min_value=1, max_value=3))
    elif kind is ScheduleKind.ZB_V:
        v = 2
        m = draw(st.integers(min_value=1, max_value=8))
        if draw(st.booleans()):
            buckets = WAVE_RATIO_BUCKETS
            ratio = WaveRatio(*(
                draw(st.integers(min_value=1, max_value=buckets)) / buckets
                for _ in range(3)
            ))
    else:
        v = 1
        m = draw(st.integers(min_value=1, max_value=8))
    return cached_build_schedule(kind, p, m, v, ratio)


def _bytes(draw):
    return draw(st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=1e10)))


@st.composite
def stage_costs(draw, num_virtual_stages):
    """Per-virtual-stage costs with arbitrary floats in every field, default
    and explicit grad-weight shares, and non-zero transfer bytes."""
    stages = []
    for _ in range(num_virtual_stages):
        backward = draw(st.floats(min_value=1e-4, max_value=50.0))
        stages.append(StageCosts(
            forward_s=draw(st.floats(min_value=1e-4, max_value=25.0)),
            backward_s=backward,
            p2p_bytes=_bytes(draw),
            offload_bytes=_bytes(draw),
            prefetch_bytes=_bytes(draw),
            recompute_s=draw(st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=10.0))),
            activation_bytes=draw(st.floats(min_value=0.0, max_value=1e10)),
            backward_weight_s=draw(st.one_of(
                st.none(), st.floats(min_value=0.0, max_value=1.0).map(lambda f: f * backward),
            )),
            weight_grad_bytes=draw(st.floats(min_value=0.0, max_value=1e9)),
        ))
    return stages


@st.composite
def cases(draw):
    schedule = draw(schedules())
    costs = draw(stage_costs(schedule.num_virtual_stages))
    p2p = draw(st.sampled_from([float("inf"), 25e9, 3.0e8]))
    pcie = draw(st.sampled_from([16e9, 2.0e9]))
    return schedule, costs, p2p, pcie


@st.composite
def jitter_specs(draw):
    """Random non-null perturbation models."""
    spec = JitterSpec(
        compute_sigma=draw(st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=0.6))),
        straggler_prob=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
        straggler_alpha=draw(st.floats(min_value=1.2, max_value=8.0)),
        link_sigma=draw(st.sampled_from([0.0, 0.05, 0.3])),
        swap_sigma=draw(st.sampled_from([0.0, 0.1, 0.4])),
    )
    assume(not spec.is_null)
    return spec


class TestReplicaPlanes:
    @given(cases(), jitter_specs(), SEEDS,
           st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=6),
           st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_planes_equal_the_perturbed_rows(self, case, spec, seed, start, count, identity):
        """Each replica's planes equal, bit for bit, the planes of its
        perturb_stage_costs rows and of the frozen per-stage perturbation;
        the identity column equals the unperturbed costs."""
        schedule, costs, _, _ = case
        vs_rank = schedule.virtual_stage_ranks
        multipliers = _replica_multipliers(seed, start, start + count, vs_rank, spec, identity)
        planes = _jittered_planes(costs, spec, multipliers)
        replicas = range(start, start + count)
        base = [costs] if identity else []
        rows = base + [
            perturb_stage_costs(costs, spec, replica_rng(seed, replica), vs_rank=vs_rank)
            for replica in replicas
        ]
        frozen_rows = base + [
            frozen_scorer.apply_variates(
                costs, spec,
                frozen_scorer.draw_variates(replica_rng(seed, replica), max(vs_rank) + 1,
                                            len(costs)),
                vs_rank,
            )
            for replica in replicas
        ]
        assert planes.values.shape == (7, len(costs), identity + count)
        for expected in (rows, frozen_rows):
            expected_planes = CostPlanes.from_rows(schedule, expected)
            assert planes.values.tobytes() == expected_planes.values.tobytes()

    def test_multiplier_planes_are_memoized_and_read_only(self):
        spec = JitterSpec(compute_sigma=0.1, straggler_prob=0.5)
        first = _replica_multipliers(3, 0, 4, (0, 1, 1, 0), spec, True)
        assert _replica_multipliers(3, 0, 4, (0, 1, 1, 0), spec, True) is first
        assert not first.flags.writeable
        assert (first[:, :, 0] == 1.0).all()
        clear_fastpath_caches()
        assert _replica_multipliers.cache_info().currsize == 0


class TestRowZero:
    @given(cases(), jitter_specs(), SEEDS, st.integers(min_value=2, max_value=6),
           st.sampled_from([None, 1e-9, 1e9]))
    @settings(max_examples=100, deadline=None)
    def test_row_zero_timeline_equals_evaluate_schedule(
        self, case, spec, seed, replicas, halfwidth,
    ):
        schedule, costs, p2p, pcie = case
        transfer = dict(p2p_bandwidth_bytes_per_s=p2p, pcie_bandwidth_bytes_per_s=pcie)
        distribution = monte_carlo_timeline(
            schedule, costs, spec, replicas=replicas, seed=seed,
            ci_halfwidth=halfwidth, min_replicas=2, **transfer,
        )
        reference = evaluate_schedule(schedule, costs, **transfer)
        timeline = distribution.deterministic_timeline
        for field in fields(PipelineTimeline):
            assert getattr(timeline, field.name) == getattr(reference, field.name), field.name
        assert timeline.bubble_fraction == reference.bubble_fraction
        assert distribution.deterministic_total_s == reference.total_s


class TestScoreCandidateMatchesFrozenComposition:
    @given(cases(), jitter_specs(), SEEDS, st.integers(min_value=2, max_value=8),
           st.sampled_from([None, 0.0, 1e-3, 1e9]),
           st.sampled_from([None, "mtbf=43200,correlated=0.3:8", "mtbf=5000,preempt=20000:60"]),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_jittered_score_equals_the_frozen_scorer(
        self, case, spec, seed, replicas, halfwidth, failures, data,
    ):
        schedule, costs, p2p, pcie = case
        objectives = RISK_OBJECTIVES + (TTRAIN_OBJECTIVES if failures else ())
        config = SearchConfig(
            jitter=spec, failures=failures,
            risk_objective=data.draw(st.sampled_from(objectives)),
            monte_carlo_replicas=replicas, monte_carlo_seed=seed,
            monte_carlo_ci_halfwidth=halfwidth, target_iterations=200,
        )
        arguments = (
            config, schedule, costs, p2p, pcie,
            data.draw(st.sampled_from([0.0, 0.125, 3.5])),
            schedule.num_stages * data.draw(st.sampled_from([1, 4])), 8,
        )
        assert score_candidate(*arguments) == frozen_scorer.score_candidate(*arguments)

    def test_one_sweep_never_touches_the_timeline_cache(self):
        clear_fastpath_caches()
        schedule = cached_build_schedule(ScheduleKind.ZB_V, 2, 4, 2)
        costs = [StageCosts(forward_s=1.0, backward_s=2.0, recompute_s=0.5)] * 4
        score = score_candidate(
            SearchConfig(jitter="0.05", monte_carlo_replicas=4), schedule, costs,
            float("inf"), 16e9, 0.0, 2, 8,
        )
        assert score.timeline.total_s == evaluate_schedule(schedule, costs).total_s
        timelines = fastpath_cache_info()["timelines"]
        assert (timelines.hits, timelines.misses) == (0, 1)  # the reference call only


class TestOverflowingSpecs:
    SCHEDULE = (ScheduleKind.ONE_F_ONE_B, 2, 4, 1, None)

    @pytest.mark.parametrize("spec, costs", [
        (JitterSpec(compute_sigma=1e308), StageCosts(forward_s=1.0, backward_s=2.0)),
        (JitterSpec(straggler_prob=0.5, straggler_alpha=1e-4),
         StageCosts(forward_s=1.0, backward_s=2.0)),
        # Finite multipliers whose products overflow the costs.
        (JitterSpec(compute_sigma=40.0), StageCosts(forward_s=1e300, backward_s=1e300)),
    ], ids=["exp", "pareto", "cost"])
    @pytest.mark.parametrize("batch", [True, False])
    def test_one_error_naming_the_spec_and_no_warning(self, spec, costs, batch):
        schedule = cached_build_schedule(*self.SCHEDULE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(JitterRangeError, match=re.escape(spec.describe())):
                monte_carlo_timeline(schedule, costs, spec, replicas=8, seed=0, batch=batch)
            with pytest.raises(JitterRangeError, match=re.escape(spec.describe())):
                for replica in range(8):
                    perturb_stage_costs([costs] * 2, spec, replica_rng(0, replica))

    def test_plan_fleet_records_the_error_on_its_point(self):
        grid = WorkloadGrid.from_spec({
            "axes": {"model": []},
            "points": [{"model": "7B", "seqlen_k": 16, "gpus": 2, "global_batch": 4}],
            "search": {"system": "megatron", "jitter": "compute=1e308"},
        })
        outcome, = plan_fleet(grid, use_disk_cache=False).outcomes
        assert not outcome.ok
        assert "JitterRangeError" in outcome.error and "compute=1e+308" in outcome.error


class TestCostPlaneChecks:
    @pytest.mark.parametrize("field, value", [
        (0, float("nan")), (1, -1.0), (4, float("inf")), (3, 2.5),
    ], ids=["nan-forward", "negative-backward", "inf-p2p", "weight-over-backward"])
    def test_every_stage_costs_check_holds_plane_wide(self, field, value):
        schedule = cached_build_schedule(*TestOverflowingSpecs.SCHEDULE)
        planes = CostPlanes.from_rows(schedule, [StageCosts(forward_s=1.0, backward_s=2.0)] * 3)
        values = planes.values.copy()
        values[field, 1, 2] = value
        with pytest.raises(ValueError, match="virtual stage 1, row 2"):
            CostPlanes(values)

    def test_weight_within_the_tolerance_passes(self):
        values = CostPlanes.from_rows(
            cached_build_schedule(*TestOverflowingSpecs.SCHEDULE),
            [StageCosts(forward_s=1.0, backward_s=2.0)],
        ).values.copy()
        values[3] = values[1] + 1e-13
        CostPlanes(values)
