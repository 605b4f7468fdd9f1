"""Statistical test suite of the stochastic simulation layer.

Randomized simulation is only trustworthy when its randomness is itself
pinned down, so these tests enforce the layer's contracts exactly rather
than approximately:

* **seeded determinism** -- the same seed yields a bit-identical
  :class:`MakespanDistribution` across cache clears and across a fresh
  interpreter (a real subprocess, i.e. two processes' worth of caches);
* **zero-jitter collapse** -- with the null spec every draw equals the
  deterministic fast path bit for bit, not approximately;
* **percentile sanity** -- p50 <= p95 <= p99 on every seed, and every
  sample sits at or above both the deterministic makespan and the analytic
  lower bound (the multipliers-$\\geq$-1 floor that keeps pruning valid);
* **monotonicity** -- on a fixed seed grid, a larger jitter scale produces
  pointwise (not merely stochastically) larger makespans, because draws are
  coupled through a fixed variate-consumption protocol.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.config import tokens
from repro.parallel.strategy import DegenerateScheduleWarning, ParallelismConfig
from repro.sim.failures import FailureSpec, simulate_time_to_train
from repro.sim.fastpath import (
    clear_fastpath_caches,
    critical_path_timeline,
    fastpath_cache_info,
    pipeline_lower_bound,
)
from repro.sim.pipeline import StageCosts
from repro.sim.schedules import ScheduleKind, build_schedule
from repro.sim.stochastic import (
    MIN_SEQUENTIAL_REPLICAS,
    NULL_JITTER,
    RISK_OBJECTIVES,
    JitterSpec,
    MakespanDistribution,
    _Z_95,
    _apply_variates,
    _replica_variates,
    distribution_ci_halfwidth,
    monte_carlo_timeline,
    parse_jitter_spec,
    perturb_stage_costs,
    replica_rng,
)
from repro.systems.base import Workload
from repro.systems.memo import MemoSystem

COSTS = StageCosts(forward_s=1.0, backward_s=2.0, p2p_bytes=1e6, backward_weight_s=0.8)
SPEC = JitterSpec(compute_sigma=0.05, straggler_prob=0.1, straggler_alpha=3.0, link_sigma=0.02)

ALL_KINDS = [
    (ScheduleKind.GPIPE, 1),
    (ScheduleKind.ONE_F_ONE_B, 1),
    (ScheduleKind.INTERLEAVED, 2),
    (ScheduleKind.ZB_H1, 1),
    (ScheduleKind.ZB_V, 2),
]


def _zb_v(p=4, m=8):
    return build_schedule(ScheduleKind.ZB_V, p, m, num_chunks=2)


class TestJitterSpec:
    def test_null_spec(self):
        assert NULL_JITTER.is_null
        assert JitterSpec(compute_sigma=0.01).is_null is False
        assert JitterSpec(straggler_prob=0.1).is_null is False
        assert JitterSpec(link_sigma=0.1).is_null is False
        # alpha alone does not activate anything: no straggler probability.
        assert JitterSpec(straggler_alpha=2.0).is_null

    @pytest.mark.parametrize("kwargs", [
        {"compute_sigma": -0.1},
        {"compute_sigma": float("nan")},
        {"link_sigma": float("inf")},
        {"straggler_prob": -0.01},
        {"straggler_prob": 1.5},
        {"straggler_alpha": 0.0},
        {"straggler_alpha": -3.0},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            JitterSpec(**kwargs)

    def test_parse_grammar(self):
        assert parse_jitter_spec("0") == NULL_JITTER
        assert parse_jitter_spec("0.05") == JitterSpec(compute_sigma=0.05)
        assert parse_jitter_spec("compute=0.05") == JitterSpec(compute_sigma=0.05)
        assert parse_jitter_spec("compute=0.05,link=0.02") == JitterSpec(
            compute_sigma=0.05, link_sigma=0.02,
        )
        assert parse_jitter_spec("straggler=0.1") == JitterSpec(straggler_prob=0.1)
        assert parse_jitter_spec("straggler=0.1:2.5") == JitterSpec(
            straggler_prob=0.1, straggler_alpha=2.5,
        )
        assert parse_jitter_spec("compute=0.05,straggler=0.1:2.5,link=0.02") == JitterSpec(
            compute_sigma=0.05, straggler_prob=0.1, straggler_alpha=2.5, link_sigma=0.02,
        )

    @pytest.mark.parametrize("text", ["", "bogus=1", "compute", "compute=x", "0.05;0.1"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_jitter_spec(text)

    def test_describe_roundtrips(self):
        for spec in (NULL_JITTER, SPEC, JitterSpec(link_sigma=0.25),
                     JitterSpec(straggler_prob=0.5, straggler_alpha=1.5)):
            assert parse_jitter_spec(spec.describe()) == spec


class TestPerturbStageCosts:
    def test_null_spec_returns_inputs_unchanged(self):
        """Zero jitter is the identity on the *objects*, not just the values."""
        stages = [COSTS, COSTS]
        out = perturb_stage_costs(stages, NULL_JITTER, replica_rng(0, 0))
        assert out == tuple(stages)
        assert out[0] is stages[0] and out[1] is stages[1]

    def test_multipliers_never_shrink_a_cost(self):
        """Every perturbed duration/payload >= its deterministic value -- the
        invariant that keeps the analytic bound a floor for every draw."""
        for replica in range(50):
            out, = perturb_stage_costs(COSTS, SPEC, replica_rng(11, replica))
            assert out.forward_s >= COSTS.forward_s
            assert out.backward_s >= COSTS.backward_s
            assert out.p2p_bytes >= COSTS.p2p_bytes
            assert out.backward_weight_s >= COSTS.backward_weight_s

    def test_backward_weight_invariant_preserved(self):
        """backward_weight_s scales with backward_s, staying inside
        [0, backward_s] (StageCosts would reject the draw otherwise)."""
        for replica in range(50):
            out, = perturb_stage_costs(COSTS, JitterSpec(compute_sigma=0.5),
                                       replica_rng(3, replica))
            assert 0.0 <= out.backward_weight_s <= out.backward_s
            assert out.backward_weight_s / out.backward_s == pytest.approx(
                COSTS.backward_weight_s / COSTS.backward_s,
            )

    def test_untouched_fields_stay_bit_identical(self):
        out, = perturb_stage_costs(
            StageCosts(forward_s=1.0, backward_s=2.0, offload_bytes=3.0,
                       prefetch_bytes=2.0, activation_bytes=7.0,
                       backward_weight_s=0.5, weight_grad_bytes=4.0),
            SPEC, replica_rng(0, 0),
        )
        assert out.offload_bytes == 3.0
        assert out.prefetch_bytes == 2.0
        assert out.activation_bytes == 7.0
        assert out.weight_grad_bytes == 4.0

    def test_straggler_applies_per_rank_through_placement(self):
        """With pure straggler jitter, both V-chunks of a rank share one
        multiplier, and non-straggled ranks are untouched."""
        schedule = _zb_v()
        vs_rank = schedule.virtual_stage_ranks
        stages = [COSTS] * schedule.num_virtual_stages
        spec = JitterSpec(straggler_prob=0.5)
        for replica in range(20):
            out = perturb_stage_costs(stages, spec, replica_rng(5, replica), vs_rank=vs_rank)
            mult_by_stage = [stage.forward_s / COSTS.forward_s for stage in out]
            by_rank = {}
            for vs, mult in enumerate(mult_by_stage):
                by_rank.setdefault(vs_rank[vs], set()).add(round(mult, 12))
            for rank, mults in by_rank.items():
                assert len(mults) == 1, (replica, rank, mults)

    def test_placement_map_length_checked(self):
        with pytest.raises(ValueError):
            perturb_stage_costs([COSTS, COSTS], SPEC, replica_rng(0, 0), vs_rank=[0])


class TestReplicaVariatesMemo:
    """Monte-Carlo replicas reuse one process-wide copy of their raw draws."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("replica", [0, 3])
    @pytest.mark.parametrize("num_ranks, vs_rank", [
        (1, (0,)),
        (3, (0, 1, 2)),
        (2, (0, 1, 1, 0)),  # V placement: two chunks per rank
        (2, (0, 1, 0, 1)),  # interleaved placement
    ])
    def test_memoized_draws_match_a_fresh_generator(self, seed, replica, num_ranks, vs_rank):
        stages = [
            StageCosts(forward_s=1.0 + vs, backward_s=2.0, p2p_bytes=1e6,
                       offload_bytes=3.0, prefetch_bytes=2.0, backward_weight_s=0.8)
            for vs in range(len(vs_rank))
        ]
        spec = JitterSpec(compute_sigma=0.05, straggler_prob=0.5, link_sigma=0.02,
                          swap_sigma=0.1)
        fresh = perturb_stage_costs(stages, spec, replica_rng(seed, replica), vs_rank=vs_rank)
        for _ in range(2):  # the second lookup hits the memo
            variates = _replica_variates(seed, replica, num_ranks, len(vs_rank))
            assert _apply_variates(stages, spec, variates, vs_rank) == fresh

    def test_monte_carlo_matches_fresh_generators(self):
        schedule = _zb_v()
        stages = [COSTS] * schedule.num_virtual_stages
        dist = monte_carlo_timeline(schedule, stages, SPEC, replicas=6, seed=5, batch=False)
        expected = tuple(
            critical_path_timeline(schedule, perturb_stage_costs(
                stages, SPEC, replica_rng(5, replica),
                vs_rank=schedule.virtual_stage_ranks,
            )).total_s
            for replica in range(6)
        )
        assert dist.samples == expected

    def test_memoized_arrays_are_read_only(self):
        for array in _replica_variates(1, 2, 3, 4):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_clear_fastpath_caches_empties_both_memos(self):
        from repro.model.activations import skeletal_bytes_per_layer
        from repro.model.specs import get_model_config

        monte_carlo_timeline(_zb_v(), COSTS, SPEC, replicas=4, seed=0)
        skeletal_bytes_per_layer(get_model_config("7B"), 1, 4096)
        assert _replica_variates.cache_info().currsize > 0
        assert skeletal_bytes_per_layer.cache_info().currsize > 0
        clear_fastpath_caches()
        assert _replica_variates.cache_info().currsize == 0
        assert skeletal_bytes_per_layer.cache_info().currsize == 0


class TestSeededDeterminism:
    def test_bit_identical_across_cache_clears(self):
        schedule = _zb_v()
        first = monte_carlo_timeline(schedule, COSTS, SPEC, replicas=16, seed=7)
        clear_fastpath_caches()
        rebuilt = _zb_v()
        second = monte_carlo_timeline(rebuilt, COSTS, SPEC, replicas=16, seed=7)
        assert first == second  # dataclass equality == bit identity

    def test_bit_identical_across_processes(self):
        """A fresh interpreter (cold caches, fresh numpy state) reproduces
        the exact float bits of every sample."""
        schedule = _zb_v()
        local = monte_carlo_timeline(schedule, COSTS, SPEC, replicas=8, seed=42)
        script = (
            "import json, sys\n"
            "from repro.sim.schedules import ScheduleKind, build_schedule\n"
            "from repro.sim.pipeline import StageCosts\n"
            "from repro.sim.stochastic import JitterSpec, monte_carlo_timeline\n"
            "schedule = build_schedule(ScheduleKind.ZB_V, 4, 8, num_chunks=2)\n"
            "costs = StageCosts(forward_s=1.0, backward_s=2.0, p2p_bytes=1e6,"
            " backward_weight_s=0.8)\n"
            "spec = JitterSpec(compute_sigma=0.05, straggler_prob=0.1,"
            " straggler_alpha=3.0, link_sigma=0.02)\n"
            "dist = monte_carlo_timeline(schedule, costs, spec, replicas=8, seed=42)\n"
            "print(json.dumps([sample.hex() for sample in dist.samples]))\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, check=True,
        )
        remote = [float.fromhex(sample) for sample in json.loads(result.stdout)]
        assert remote == list(local.samples)

    def test_different_seeds_differ(self):
        schedule = _zb_v()
        a = monte_carlo_timeline(schedule, COSTS, SPEC, replicas=8, seed=0)
        b = monte_carlo_timeline(schedule, COSTS, SPEC, replicas=8, seed=1)
        assert a.samples != b.samples

    def test_replica_prefix_stable(self):
        """Replica r's draw does not depend on how many replicas run: the
        8-replica distribution is a prefix of the 16-replica one."""
        schedule = _zb_v()
        short = monte_carlo_timeline(schedule, COSTS, SPEC, replicas=8, seed=7)
        long = monte_carlo_timeline(schedule, COSTS, SPEC, replicas=16, seed=7)
        assert long.samples[:8] == short.samples

    def test_monte_carlo_does_not_touch_fastpath_caches(self):
        """Replica draws are one-off cost vectors: routing them through the
        lru caches would evict the deterministic search's working set, so
        the MC path must leave the cache counters untouched."""
        schedule = _zb_v()
        clear_fastpath_caches()
        before = {name: (info.hits, info.misses)
                  for name, info in fastpath_cache_info().items()}
        monte_carlo_timeline(schedule, COSTS, SPEC, replicas=8, seed=0)
        after = {name: (info.hits, info.misses)
                 for name, info in fastpath_cache_info().items()}
        assert after == before


class TestZeroJitterCollapse:
    @pytest.mark.parametrize("kind,chunks", ALL_KINDS)
    def test_every_draw_equals_the_deterministic_fast_path(self, kind, chunks):
        schedule = build_schedule(kind, 4, 8, num_chunks=chunks)
        deterministic = critical_path_timeline(
            schedule, [COSTS] * schedule.num_virtual_stages,
        )
        dist = monte_carlo_timeline(schedule, COSTS, NULL_JITTER, replicas=8, seed=9)
        assert dist.deterministic_total_s == deterministic.total_s
        for sample, bubble in zip(dist.samples, dist.bubble_samples):
            assert sample == deterministic.total_s
            assert bubble == deterministic.bubble_fraction
        assert dist.bubble_variance == 0.0
        for objective in RISK_OBJECTIVES:
            assert dist.score(objective) == deterministic.total_s


class TestPercentileSanity:
    @pytest.mark.parametrize("seed", range(10))
    def test_ordering_and_floors(self, seed):
        schedule = _zb_v()
        dist = monte_carlo_timeline(schedule, COSTS, SPEC, replicas=32, seed=seed)
        assert dist.min_s <= dist.p50_s <= dist.p95_s <= dist.p99_s <= dist.max_s
        assert dist.p95_s <= dist.cvar95_s <= dist.max_s
        assert dist.lower_bound_s <= dist.deterministic_total_s
        for sample in dist.samples:
            assert sample >= dist.deterministic_total_s
            assert sample >= dist.lower_bound_s
        bound = pipeline_lower_bound(schedule, [COSTS] * schedule.num_virtual_stages)
        assert dist.lower_bound_s == bound

    def test_nearest_rank_percentiles(self):
        dist = MakespanDistribution(
            samples=(4.0, 2.0, 3.0, 1.0), bubble_samples=(0.0,) * 4,
            deterministic_total_s=1.0, lower_bound_s=0.5, seed=0, spec=SPEC,
        )
        assert dist.percentile(25) == 1.0
        assert dist.percentile(50) == 2.0
        assert dist.percentile(75) == 3.0
        assert dist.percentile(100) == 4.0
        assert dist.p99_s == 4.0
        assert dist.mean_s == 2.5
        assert dist.cvar95_s == 4.0  # worst 5% of 4 samples = the maximum
        with pytest.raises(ValueError):
            dist.percentile(0)
        with pytest.raises(ValueError):
            dist.percentile(101)

    def test_score_objectives(self):
        dist = MakespanDistribution(
            samples=tuple(float(value) for value in range(1, 101)),
            bubble_samples=(0.0,) * 100,
            deterministic_total_s=1.0, lower_bound_s=0.5, seed=0, spec=SPEC,
        )
        assert dist.score("mean") == dist.mean_s == 50.5
        assert dist.score("p50") == 50.0
        assert dist.score("p95") == 95.0
        assert dist.score("p99") == 99.0
        assert dist.score("cvar") == pytest.approx(97.5)  # mean of 95..100
        with pytest.raises(ValueError):
            dist.score("p42")

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            MakespanDistribution(samples=(), bubble_samples=(),
                                 deterministic_total_s=0.0, lower_bound_s=0.0,
                                 seed=0, spec=SPEC)
        with pytest.raises(ValueError):
            MakespanDistribution(samples=(1.0,), bubble_samples=(),
                                 deterministic_total_s=0.0, lower_bound_s=0.0,
                                 seed=0, spec=SPEC)
        with pytest.raises(ValueError):
            monte_carlo_timeline(_zb_v(), COSTS, SPEC, replicas=0, seed=0)


class TestMonotonicity:
    """Draws are coupled through a fixed variate-consumption protocol, so a
    larger scale yields a *pointwise* larger makespan on every (seed,
    replica) pair -- a much stronger property than monotonicity in
    expectation, and the one a fixed-seed grid can assert exactly."""

    @pytest.mark.parametrize("seed", range(5))
    def test_compute_sigma(self, seed):
        schedule = _zb_v()
        scales = [0.01, 0.05, 0.2]
        dists = [
            monte_carlo_timeline(schedule, COSTS, JitterSpec(compute_sigma=sigma),
                                 replicas=16, seed=seed)
            for sigma in scales
        ]
        for lo, hi in zip(dists, dists[1:]):
            assert all(a <= b for a, b in zip(lo.samples, hi.samples))
            assert lo.p99_s <= hi.p99_s
            assert lo.mean_s <= hi.mean_s

    @pytest.mark.parametrize("seed", range(5))
    def test_straggler_probability(self, seed):
        schedule = _zb_v()
        dists = [
            monte_carlo_timeline(schedule, COSTS, JitterSpec(straggler_prob=prob),
                                 replicas=16, seed=seed)
            for prob in (0.05, 0.2, 0.6)
        ]
        for lo, hi in zip(dists, dists[1:]):
            assert all(a <= b for a, b in zip(lo.samples, hi.samples))
            assert lo.p99_s <= hi.p99_s

    @pytest.mark.parametrize("seed", range(5))
    def test_link_sigma(self, seed):
        schedule = build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8)
        dists = [
            monte_carlo_timeline(schedule, COSTS, JitterSpec(link_sigma=sigma),
                                 replicas=16, seed=seed,
                                 p2p_bandwidth_bytes_per_s=1e7)
            for sigma in (0.01, 0.1, 0.5)
        ]
        for lo, hi in zip(dists, dists[1:]):
            assert all(a <= b for a, b in zip(lo.samples, hi.samples))
            assert lo.p99_s <= hi.p99_s


class TestValidatedDraws:
    @pytest.mark.parametrize("kind,chunks", ALL_KINDS)
    def test_fast_equals_event_per_draw(self, kind, chunks):
        """validate=True runs every draw through the discrete-event oracle;
        the fast == event invariant must hold for perturbed costs too."""
        schedule = build_schedule(kind, 3, 6, num_chunks=chunks)
        dist = monte_carlo_timeline(
            schedule, COSTS, SPEC, replicas=4, seed=13,
            p2p_bandwidth_bytes_per_s=1e8, p2p_latency_s=0.001,
            validate=True,
        )
        assert dist.replicas == 4


class TestWarningDedupUnderReplication:
    def test_warns_once_per_stability_sweep_not_once_per_replica(self):
        """A degenerate parallelism point re-warns on every candidate rebuild
        in every replica search; the re-entrant dedup context must collapse
        the whole stability sweep (1 baseline + N replica searches) to
        exactly one DegenerateScheduleWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateScheduleWarning)
            degenerate_point = ParallelismConfig(
                tensor_parallel=1, pipeline_parallel=4, data_parallel=8,
                micro_batches=16,
            )
        system = MemoSystem(
            pipeline_schedule="auto",
            fixed_parallel=degenerate_point,
            jitter=JitterSpec(compute_sigma=0.05),
            risk_objective="p99",
            monte_carlo_replicas=2,
        )
        workload = Workload("7B", tokens(64), 32)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stability = system.strategy_selection_stability(
                workload, replicas=3, base_seed=0,
            )
        degenerate = [
            entry for entry in caught
            if issubclass(entry.category, DegenerateScheduleWarning)
        ]
        assert len(degenerate) == 1
        assert len(stability.selections) == 3
        assert 0.0 <= stability.stability <= 1.0


class TestSwapJitter:
    """The swap= axis jitters offload/prefetch payloads the way compute=
    jitters durations -- multipliers >= 1, drawn *after* every pre-existing
    variate so old draws stay bit-identical."""

    def test_parse_and_describe_roundtrip(self):
        assert parse_jitter_spec("swap=0.1") == JitterSpec(swap_sigma=0.1)
        combined = JitterSpec(compute_sigma=0.05, swap_sigma=0.2, link_sigma=0.02)
        assert parse_jitter_spec(combined.describe()) == combined
        assert JitterSpec(swap_sigma=0.1).is_null is False

    @pytest.mark.parametrize("kwargs", [
        {"swap_sigma": -0.1},
        {"swap_sigma": float("nan")},
        {"swap_sigma": float("inf")},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            JitterSpec(**kwargs)

    def test_scales_only_the_swap_payloads(self):
        base = StageCosts(forward_s=1.0, backward_s=2.0, p2p_bytes=5.0,
                          offload_bytes=3.0, prefetch_bytes=2.0,
                          activation_bytes=7.0, backward_weight_s=0.5)
        for replica in range(30):
            out, = perturb_stage_costs(base, JitterSpec(swap_sigma=0.3),
                                       replica_rng(17, replica))
            assert out.offload_bytes >= base.offload_bytes
            assert out.prefetch_bytes >= base.prefetch_bytes
            assert out.forward_s == base.forward_s
            assert out.backward_s == base.backward_s
            assert out.p2p_bytes == base.p2p_bytes
            assert out.activation_bytes == base.activation_bytes

    def test_swap_draws_leave_preexisting_variates_bit_identical(self):
        """Adding swap jitter to a spec must not shift the compute/straggler/
        link draws: the swap variates are consumed last."""
        base = StageCosts(forward_s=1.0, backward_s=2.0, p2p_bytes=5.0,
                          offload_bytes=3.0, prefetch_bytes=2.0,
                          backward_weight_s=0.5)
        without = JitterSpec(compute_sigma=0.05, straggler_prob=0.1,
                             straggler_alpha=3.0, link_sigma=0.02)
        with_swap = JitterSpec(compute_sigma=0.05, straggler_prob=0.1,
                               straggler_alpha=3.0, link_sigma=0.02,
                               swap_sigma=0.4)
        for replica in range(20):
            plain, = perturb_stage_costs(base, without, replica_rng(3, replica))
            swapped, = perturb_stage_costs(base, with_swap, replica_rng(3, replica))
            assert swapped.forward_s == plain.forward_s
            assert swapped.backward_s == plain.backward_s
            assert swapped.backward_weight_s == plain.backward_weight_s
            assert swapped.p2p_bytes == plain.p2p_bytes
            assert swapped.offload_bytes >= plain.offload_bytes

    @pytest.mark.parametrize("seed", range(5))
    def test_per_seed_monotonicity(self, seed):
        """Larger swap sigma yields pointwise larger payloads on a fixed
        (seed, replica) grid -- the fixed variate order couples the draws."""
        base = StageCosts(forward_s=1.0, backward_s=2.0, offload_bytes=3.0,
                          prefetch_bytes=2.0)
        for replica in range(8):
            drawn = [
                perturb_stage_costs(base, JitterSpec(swap_sigma=sigma),
                                    replica_rng(seed, replica))[0]
                for sigma in (0.05, 0.2, 0.6)
            ]
            for lo, hi in zip(drawn, drawn[1:]):
                assert lo.offload_bytes <= hi.offload_bytes
                assert lo.prefetch_bytes <= hi.prefetch_bytes


class TestDistributionCiHalfwidth:
    def test_mean_matches_the_clt_formula(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        expected = _Z_95 * math.sqrt(
            sum((s - 2.5) ** 2 for s in samples) / 3.0 / 4.0
        )
        assert distribution_ci_halfwidth(samples, "mean") == pytest.approx(expected)

    def test_zero_variance_collapses_to_zero(self):
        samples = [5.0] * 16
        for objective in ("mean", "p50", "p95", "p99"):
            assert distribution_ci_halfwidth(samples, objective) == 0.0

    def test_unestimable_cases_return_inf(self):
        assert distribution_ci_halfwidth([1.0], "mean") == math.inf
        # cvar needs at least two tail samples: a length-4 tail holds one.
        assert distribution_ci_halfwidth([1.0, 2.0, 3.0, 4.0], "cvar") == math.inf

    def test_ttrain_prefix_is_accepted(self):
        samples = [float(v) for v in range(1, 33)]
        for base in ("mean", "p50", "p99"):
            assert distribution_ci_halfwidth(samples, "ttrain_" + base) == \
                distribution_ci_halfwidth(samples, base)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError):
            distribution_ci_halfwidth([1.0, 2.0], "p42")


class TestMonteCarloSequentialStopping:
    def test_loose_bound_stops_at_min_replicas_and_is_a_prefix(self):
        schedule = _zb_v()
        fixed = monte_carlo_timeline(schedule, COSTS, SPEC, replicas=32, seed=7)
        adaptive = monte_carlo_timeline(schedule, COSTS, SPEC, replicas=32, seed=7,
                                        ci_halfwidth=1e9)
        assert adaptive.replicas == MIN_SEQUENTIAL_REPLICAS
        assert adaptive.samples == fixed.samples[:adaptive.replicas]
        assert adaptive.target_ci_halfwidth == 1e9

    def test_tight_bound_runs_to_the_cap(self):
        schedule = _zb_v()
        dist = monte_carlo_timeline(schedule, COSTS, SPEC, replicas=12, seed=7,
                                    ci_halfwidth=0.0)
        assert dist.replicas == 12

    def test_ci_halfwidth_s_matches_the_free_function(self):
        schedule = _zb_v()
        dist = monte_carlo_timeline(schedule, COSTS, SPEC, replicas=16, seed=3)
        for objective in ("mean", "p99"):
            assert dist.ci_halfwidth_s(objective) == \
                distribution_ci_halfwidth(dist.samples, objective)

    def test_validation(self):
        schedule = _zb_v()
        with pytest.raises(ValueError):
            monte_carlo_timeline(schedule, COSTS, SPEC, replicas=8,
                                 ci_halfwidth=-1.0)
        with pytest.raises(ValueError):
            monte_carlo_timeline(schedule, COSTS, SPEC, replicas=8,
                                 ci_halfwidth=1.0, min_replicas=1)


def _jitter_run(**kwargs):
    return monte_carlo_timeline(_zb_v(), COSTS, SPEC, **kwargs)


def _failure_walk(**kwargs):
    return simulate_time_to_train(1.0, 10, FailureSpec(mtbf_s=5000.0), num_ranks=4,
                                  **kwargs)


class TestReplicaBudgetArguments:
    """Both Monte-Carlo entry points check their replica budget up front,
    whether or not a CI half-width bound is set."""

    @pytest.mark.parametrize("run", [_jitter_run, _failure_walk],
                             ids=["monte_carlo_timeline", "simulate_time_to_train"])
    @pytest.mark.parametrize("kwargs,name", [
        (dict(replicas=True), "replicas"),
        (dict(replicas=2.5), "replicas"),
        (dict(replicas=0), "replicas"),
        (dict(min_replicas=2.5), "min_replicas"),
        (dict(min_replicas=1), "min_replicas"),
        (dict(ci_halfwidth=-1.0), "ci_halfwidth"),
        (dict(ci_halfwidth=float("nan")), "ci_halfwidth"),
        (dict(objective="p42"), "objective"),
        (dict(objective="ttrain_p42", ci_halfwidth=0.1), "objective"),
    ])
    def test_rejects_bad_budgets(self, run, kwargs, name):
        with pytest.raises(ValueError, match=name):
            run(**kwargs)


class TestSelectionStability:
    def test_flip_accounting_with_seed_sensitive_scores(self):
        """A genuine argmax flip: a system whose risk-adjusted winner
        depends on the Monte-Carlo seed must report exactly the flipped
        seeds, not a blanket 100%."""
        from types import SimpleNamespace

        baseline_choice = ParallelismConfig(tensor_parallel=1, micro_batches=1)
        flipped_choice = ParallelismConfig(tensor_parallel=2, micro_batches=1)

        class SeedSensitiveSystem(MemoSystem):
            def run(self, workload):
                if self.config.jitter is None and self.config.failures is None:
                    return SimpleNamespace(parallel=baseline_choice)
                choice = (baseline_choice if self.config.monte_carlo_seed % 2 == 0
                          else flipped_choice)
                return SimpleNamespace(parallel=choice)

        system = SeedSensitiveSystem(jitter="0.05", risk_objective="p99")
        workload = Workload("7B", tokens(64), 16)
        stability = system.strategy_selection_stability(
            workload, replicas=4, base_seed=0,
        )
        assert stability.baseline == baseline_choice
        assert stability.selections == (
            baseline_choice, flipped_choice, baseline_choice, flipped_choice,
        )
        assert stability.stability == 0.5
        # The sweep runs on copies: the system keeps its own seed and jitter.
        assert system.config.monte_carlo_seed == 0
        assert system.config.jitter is not None

    def test_cross_seed_sweep_is_bit_identical_across_processes(self):
        """The whole stability sweep -- baseline plus per-seed searches --
        reproduces the same selections in a fresh interpreter."""
        workload = Workload("7B", tokens(64), 8, global_batch_samples=32)
        system = MemoSystem(
            pipeline_schedule="auto", jitter="0.08", risk_objective="p99",
            monte_carlo_replicas=2,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateScheduleWarning)
            local = system.strategy_selection_stability(
                workload, replicas=2, base_seed=3,
            )
        script = (
            "import json, warnings\n"
            "from repro.config import tokens\n"
            "from repro.parallel.strategy import DegenerateScheduleWarning\n"
            "from repro.systems.base import Workload\n"
            "from repro.systems.memo import MemoSystem\n"
            "workload = Workload('7B', tokens(64), 8, global_batch_samples=32)\n"
            "system = MemoSystem(pipeline_schedule='auto', jitter='0.08',"
            " risk_objective='p99', monte_carlo_replicas=2)\n"
            "with warnings.catch_warnings():\n"
            "    warnings.simplefilter('ignore', DegenerateScheduleWarning)\n"
            "    stability = system.strategy_selection_stability("
            "workload, replicas=2, base_seed=3)\n"
            "print(json.dumps([stability.baseline.describe()]"
            " + [choice.describe() for choice in stability.selections]))\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, check=True,
        )
        remote = json.loads(result.stdout)
        assert remote == [local.baseline.describe()] + [
            choice.describe() for choice in local.selections
        ]
