"""Property-based tests (hypothesis) for the critical-path fast evaluator.

The load-bearing invariant of :mod:`repro.sim.fastpath`: the fast evaluator
and the discrete-event engine report *bit-identical* makespan, busy times
(hence bubble fraction) and per-stage peak memory for every schedule kind and
every cost vector, and the analytic lower bound never exceeds the simulated
makespan -- which is what makes bound-based pruning unable to change a
search's argmax.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel.strategy import ParallelismConfig
from repro.parallel.search import SearchStats, find_best_strategy
from repro.sim.failures import FailureSpec, RecoveryModel, simulate_time_to_train
from repro.sim.fastpath import (
    compile_schedule_program,
    critical_path_timeline,
    critical_path_timeline_batch,
    evaluate_schedule,
    pipeline_lower_bound,
)
from repro.sim.pipeline import StageCosts, simulate_pipeline
from repro.sim.schedules import (
    ScheduleKind, WAVE_RATIO_BUCKETS, WaveRatio, build_schedule,
)
from repro.sim.stochastic import (
    JitterSpec, monte_carlo_timeline, perturb_stage_costs, replica_rng,
)

from schedule_sweep import sweep_schedules


@st.composite
def wave_ratios(draw):
    """A random quantised ratio (always including unit in the search space)."""
    if draw(st.booleans()):
        return None
    buckets = WAVE_RATIO_BUCKETS
    components = [draw(st.integers(min_value=1, max_value=buckets)) for _ in range(3)]
    components[draw(st.integers(min_value=0, max_value=2))] = buckets
    return WaveRatio(*(value / buckets for value in components))


@st.composite
def schedule_shapes(draw):
    """Random (kind, p, m, v, ratio) combinations that build_schedule accepts."""
    kind = draw(st.sampled_from(list(ScheduleKind)))
    p = draw(st.integers(min_value=1, max_value=6))
    ratio = None
    if kind is ScheduleKind.INTERLEAVED:
        v = draw(st.integers(min_value=1, max_value=3))
        m = p * draw(st.integers(min_value=1, max_value=4))
    elif kind is ScheduleKind.ZB_V:
        v = 2  # the V placement folds exactly two chunks per rank
        m = draw(st.integers(min_value=1, max_value=12))
        ratio = draw(wave_ratios())  # cost-aware wavefront orders too
    else:
        v = 1
        m = draw(st.integers(min_value=1, max_value=12))
    return kind, p, m, v, ratio


@st.composite
def heterogeneous_costs(draw, num_virtual_stages, split_backward):
    """Random per-virtual-stage costs covering every StageCosts field."""
    stages = []
    for _ in range(num_virtual_stages):
        backward = draw(st.floats(min_value=0.01, max_value=4.0))
        stages.append(StageCosts(
            forward_s=draw(st.floats(min_value=0.01, max_value=2.0)),
            backward_s=backward,
            p2p_bytes=draw(st.sampled_from([0.0, 1.0, 7.5])),
            offload_bytes=draw(st.sampled_from([0.0, 0.0, 3.0])),
            prefetch_bytes=draw(st.sampled_from([0.0, 0.0, 2.0])),
            recompute_s=draw(st.sampled_from([0.0, 0.25])),
            activation_bytes=draw(st.floats(min_value=0.0, max_value=10.0)),
            backward_weight_s=(
                draw(st.floats(min_value=0.0, max_value=1.0)) * backward
                if split_backward and draw(st.booleans()) else None
            ),
            weight_grad_bytes=(
                draw(st.floats(min_value=0.0, max_value=5.0)) if split_backward else 0.0
            ),
        ))
    return stages


@st.composite
def simulation_cases(draw):
    kind, p, m, v, ratio = draw(schedule_shapes())
    costs = draw(heterogeneous_costs(p * v, kind.splits_backward))
    bandwidth = draw(st.sampled_from([float("inf"), 10.0, 0.5]))
    latency = draw(st.sampled_from([0.0, 0.05]))
    pcie = draw(st.sampled_from([1.0, 16.0]))
    return (kind, p, m, v, ratio), costs, bandwidth, latency, pcie


class TestFastPathEquivalence:
    @given(simulation_cases())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_event_engine(self, case):
        """Makespan, busy times, bubble and peak memory match exactly --
        ``==`` on floats, not approx -- across all kinds and random
        heterogeneous costs (stages <= 6, micro-batches <= 12)."""
        (kind, p, m, v, ratio), costs, bandwidth, latency, pcie = case
        schedule = build_schedule(kind, p, m, num_chunks=v, wave_ratio=ratio)
        oracle = simulate_pipeline(
            schedule, costs,
            p2p_bandwidth_bytes_per_s=bandwidth,
            p2p_latency_s=latency,
            pcie_bandwidth_bytes_per_s=pcie,
        )
        fast = critical_path_timeline(
            schedule, costs,
            p2p_bandwidth_bytes_per_s=bandwidth,
            p2p_latency_s=latency,
            pcie_bandwidth_bytes_per_s=pcie,
        )
        assert fast.total_s == oracle.total_s
        assert fast.rank_compute_busy_s == oracle.rank_compute_busy_s
        assert fast.rank_d2h_busy_s == oracle.rank_d2h_busy_s
        assert fast.rank_h2d_busy_s == oracle.rank_h2d_busy_s
        assert fast.bubble_fraction == oracle.bubble_fraction
        assert fast.rank_peak_in_flight == oracle.rank_peak_in_flight
        assert fast.rank_peak_activation_bytes == oracle.rank_peak_activation_bytes

    @given(simulation_cases())
    @settings(max_examples=80, deadline=None)
    def test_record_ops_reproduces_event_op_times(self, case):
        """With record_ops=True every op's (start, end) matches the engine's."""
        (kind, p, m, v, ratio), costs, bandwidth, latency, pcie = case
        schedule = build_schedule(kind, p, m, num_chunks=v, wave_ratio=ratio)
        oracle = simulate_pipeline(
            schedule, costs,
            p2p_bandwidth_bytes_per_s=bandwidth, p2p_latency_s=latency,
            pcie_bandwidth_bytes_per_s=pcie,
        )
        fast = critical_path_timeline(
            schedule, costs,
            p2p_bandwidth_bytes_per_s=bandwidth, p2p_latency_s=latency,
            pcie_bandwidth_bytes_per_s=pcie, record_ops=True,
        )
        assert len(fast.records) == len(oracle.records)
        by_op = {record.op: record for record in oracle.records}
        for record in fast.records:
            twin = by_op[record.op]
            assert (record.start_s, record.end_s) == (twin.start_s, twin.end_s)

    @given(simulation_cases())
    @settings(max_examples=80, deadline=None)
    def test_validate_oracle_accepts_every_case(self, case):
        """evaluate_schedule(validate=True) must never raise a mismatch."""
        (kind, p, m, v, ratio), costs, bandwidth, latency, pcie = case
        schedule = build_schedule(kind, p, m, num_chunks=v, wave_ratio=ratio)
        timeline = evaluate_schedule(
            schedule, costs,
            p2p_bandwidth_bytes_per_s=bandwidth, p2p_latency_s=latency,
            pcie_bandwidth_bytes_per_s=pcie, validate=True,
        )
        assert timeline.total_s >= 0.0


@st.composite
def jitter_specs(draw):
    """Random perturbation models, biased toward having at least one source
    of noise active (the null spec is covered by its own dedicated tests)."""
    return JitterSpec(
        compute_sigma=draw(st.sampled_from([0.0, 0.02, 0.1, 0.5])),
        straggler_prob=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
        straggler_alpha=draw(st.sampled_from([1.5, 3.0, 8.0])),
        link_sigma=draw(st.sampled_from([0.0, 0.05, 0.3])),
        swap_sigma=draw(st.sampled_from([0.0, 0.1, 0.4])),
    )


class TestStochasticComposesWithFastPath:
    """The stochastic layer is a pure StageCosts -> StageCosts transform, so
    the fast == event bit-identity must survive any jitter draw on any
    schedule kind -- including cost-aware ZB-V wavefront orders, whose op
    order was derived from the *deterministic* ratio and now executes under
    perturbed durations, exactly like a real cluster runs a planned schedule
    under noise."""

    @given(simulation_cases(), jitter_specs(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_perturbed_costs_stay_bit_identical_across_engines(self, case, spec, seed):
        (kind, p, m, v, ratio), costs, bandwidth, latency, pcie = case
        schedule = build_schedule(kind, p, m, num_chunks=v, wave_ratio=ratio)
        drawn = perturb_stage_costs(
            costs, spec, replica_rng(seed, 0),
            vs_rank=schedule.virtual_stage_ranks,
        )
        oracle = simulate_pipeline(
            schedule, list(drawn),
            p2p_bandwidth_bytes_per_s=bandwidth, p2p_latency_s=latency,
            pcie_bandwidth_bytes_per_s=pcie,
        )
        fast = critical_path_timeline(
            schedule, drawn,
            p2p_bandwidth_bytes_per_s=bandwidth, p2p_latency_s=latency,
            pcie_bandwidth_bytes_per_s=pcie,
        )
        assert fast.total_s == oracle.total_s
        assert fast.rank_compute_busy_s == oracle.rank_compute_busy_s
        assert fast.bubble_fraction == oracle.bubble_fraction
        assert fast.rank_peak_in_flight == oracle.rank_peak_in_flight

    @given(simulation_cases(), jitter_specs(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_draw_never_beats_deterministic_or_bound(self, case, spec, seed):
        """Multipliers >= 1 make each draw's makespan >= the deterministic
        makespan >= the analytic bound -- the floor chain that keeps every
        pruning level valid under risk objectives."""
        (kind, p, m, v, ratio), costs, bandwidth, latency, pcie = case
        schedule = build_schedule(kind, p, m, num_chunks=v, wave_ratio=ratio)
        deterministic = critical_path_timeline(
            schedule, costs,
            p2p_bandwidth_bytes_per_s=bandwidth, p2p_latency_s=latency,
            pcie_bandwidth_bytes_per_s=pcie,
        )
        bound = pipeline_lower_bound(
            schedule, costs,
            p2p_bandwidth_bytes_per_s=bandwidth, p2p_latency_s=latency,
        )
        drawn = perturb_stage_costs(
            costs, spec, replica_rng(seed, 0),
            vs_rank=schedule.virtual_stage_ranks,
        )
        perturbed = critical_path_timeline(
            schedule, drawn,
            p2p_bandwidth_bytes_per_s=bandwidth, p2p_latency_s=latency,
            pcie_bandwidth_bytes_per_s=pcie,
        )
        assert perturbed.total_s >= deterministic.total_s
        assert perturbed.total_s >= bound


class TestBatchFastPathBitIdentity:
    """The batched evaluator replays a compiled ScheduleProgram over a stack
    of cost rows with elementwise numpy arithmetic that mirrors the scalar
    sweep operation for operation, so every row of a batch must equal --
    ``==`` on floats, not approx -- the scalar ``critical_path_timeline`` of
    that row alone, across all five schedule kinds, random wave ratios and
    perturbed heterogeneous costs."""

    @given(
        simulation_cases(), jitter_specs(),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_batch_row_matches_the_scalar_sweep(self, case, spec, seed, draws):
        (kind, p, m, v, ratio), costs, bandwidth, latency, pcie = case
        schedule = build_schedule(kind, p, m, num_chunks=v, wave_ratio=ratio)
        # Row 0 is the unperturbed base; the rest are independent jitter
        # draws, exactly how monte_carlo_timeline builds its chunks.
        rows = [costs] + [
            perturb_stage_costs(
                costs, spec, replica_rng(seed, replica),
                vs_rank=schedule.virtual_stage_ranks,
            )
            for replica in range(draws)
        ]
        program = compile_schedule_program(schedule)
        batch = critical_path_timeline_batch(
            program, rows,
            p2p_bandwidth_bytes_per_s=bandwidth, p2p_latency_s=latency,
            pcie_bandwidth_bytes_per_s=pcie,
        )
        assert batch.batch_size == len(rows)
        for index, row in enumerate(rows):
            scalar = critical_path_timeline(
                schedule, row,
                p2p_bandwidth_bytes_per_s=bandwidth, p2p_latency_s=latency,
                pcie_bandwidth_bytes_per_s=pcie,
            )
            assert float(batch.total_s[index]) == scalar.total_s
            assert float(batch.bubble_fraction[index]) == scalar.bubble_fraction
            for rank in range(p):
                assert float(batch.rank_compute_busy_s[rank][index]) == \
                    scalar.rank_compute_busy_s[rank]
                assert float(batch.rank_d2h_busy_s[rank][index]) == \
                    scalar.rank_d2h_busy_s[rank]
                assert float(batch.rank_h2d_busy_s[rank][index]) == \
                    scalar.rank_h2d_busy_s[rank]


class TestMonteCarloBatchingInvariance:
    """monte_carlo_timeline with ``batch=True`` stacks all replicas into one
    critical_path_timeline_batch call; the resulting MakespanDistribution --
    and anything derived from it downstream, like TimeToTrainDistribution --
    must be bit-identical to the per-draw scalar loop, including under
    variance-aware sequential stopping (adaptive samples stay an exact
    prefix of the fixed-cap run's)."""

    FAILURES = FailureSpec(mtbf_s=5000.0, correlated_prob=0.3,
                           preempt_every_s=20000.0, preempt_notice_s=60.0)
    RECOVERY = RecoveryModel(checkpoint_write_s=20.0, restart_overhead_s=100.0)

    @given(
        simulation_cases(), jitter_specs(),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_distribution_equals_scalar(self, case, spec, seed):
        (kind, p, m, v, ratio), costs, bandwidth, latency, pcie = case
        schedule = build_schedule(kind, p, m, num_chunks=v, wave_ratio=ratio)
        kwargs = dict(
            replicas=5, seed=seed,
            p2p_bandwidth_bytes_per_s=bandwidth, p2p_latency_s=latency,
            pcie_bandwidth_bytes_per_s=pcie,
        )
        scalar = monte_carlo_timeline(schedule, costs, spec, batch=False, **kwargs)
        batched = monte_carlo_timeline(schedule, costs, spec, batch=True, **kwargs)
        # Frozen dataclasses of float tuples: == is exact, field for field.
        assert batched == scalar
        # The auto default (replicas > 1, no validation) takes the batch
        # path and must land on the same distribution.
        assert monte_carlo_timeline(schedule, costs, spec, **kwargs) == scalar

    @given(
        simulation_cases(), jitter_specs(),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from([1e9, 1e-9]),
    )
    @settings(max_examples=30, deadline=None)
    def test_sequential_stopping_is_an_exact_prefix(self, case, spec, seed, halfwidth):
        """A huge CI bound stops right at min_replicas, a tiny one runs to
        the cap -- either way the batched adaptive run equals the scalar
        adaptive run, and its samples are a prefix of the fixed-cap run's
        (stopping early changes how many draws are kept, never which)."""
        (kind, p, m, v, ratio), costs, bandwidth, latency, pcie = case
        schedule = build_schedule(kind, p, m, num_chunks=v, wave_ratio=ratio)
        kwargs = dict(
            replicas=6, seed=seed, min_replicas=2,
            p2p_bandwidth_bytes_per_s=bandwidth, p2p_latency_s=latency,
            pcie_bandwidth_bytes_per_s=pcie,
        )
        full = monte_carlo_timeline(schedule, costs, spec, batch=True, **kwargs)
        adaptive_scalar = monte_carlo_timeline(
            schedule, costs, spec, batch=False, ci_halfwidth=halfwidth, **kwargs,
        )
        adaptive_batched = monte_carlo_timeline(
            schedule, costs, spec, batch=True, ci_halfwidth=halfwidth, **kwargs,
        )
        assert adaptive_batched == adaptive_scalar
        kept = len(adaptive_batched.samples)
        assert 2 <= kept <= 6
        assert adaptive_batched.samples == full.samples[:kept]
        assert adaptive_batched.bubble_samples == full.bubble_samples[:kept]

    @given(jitter_specs(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_time_to_train_is_identical_from_batched_samples(self, spec, seed):
        """The failure walk consumes the jitter-composed iteration-time
        sequence sample by sample, so feeding it the batched distribution
        must reproduce the scalar-fed TimeToTrainDistribution exactly."""
        schedule = build_schedule(ScheduleKind.ZB_V, 4, 8, num_chunks=2)
        costs = StageCosts(forward_s=1.0, backward_s=2.0, p2p_bytes=1e6,
                           backward_weight_s=0.8)
        kwargs = dict(replicas=6, seed=seed,
                      p2p_bandwidth_bytes_per_s=25e9, p2p_latency_s=5e-6)
        scalar = monte_carlo_timeline(schedule, costs, spec, batch=False, **kwargs)
        batched = monte_carlo_timeline(schedule, costs, spec, batch=True, **kwargs)
        walks = [
            simulate_time_to_train(
                distribution.samples, 64, self.FAILURES, recovery=self.RECOVERY,
                num_ranks=8, replicas=4, seed=seed, gpus_per_node=4,
            )
            for distribution in (scalar, batched)
        ]
        assert walks[0] == walks[1]


class TestLowerBoundProperties:
    @given(simulation_cases())
    @settings(max_examples=150, deadline=None)
    def test_lower_bound_never_exceeds_makespan(self, case):
        (kind, p, m, v, ratio), costs, bandwidth, latency, pcie = case
        schedule = build_schedule(kind, p, m, num_chunks=v, wave_ratio=ratio)
        timeline = critical_path_timeline(
            schedule, costs,
            p2p_bandwidth_bytes_per_s=bandwidth, p2p_latency_s=latency,
            pcie_bandwidth_bytes_per_s=pcie,
        )
        bound = pipeline_lower_bound(
            schedule, costs,
            p2p_bandwidth_bytes_per_s=bandwidth, p2p_latency_s=latency,
        )
        assert bound <= timeline.total_s

    def test_bound_is_tight_for_zb_h1_in_the_paper_regime(self):
        """ZB-H1 with T_W >= T_B achieves the (p-1)F + m(F+B+W) bound, so the
        analytic bound must be within a whisker of the simulated makespan."""
        costs = StageCosts(forward_s=1.0, backward_s=2.0, backward_weight_s=1.2)
        schedule = build_schedule(ScheduleKind.ZB_H1, 4, 8)
        timeline = critical_path_timeline(schedule, costs)
        bound = pipeline_lower_bound(schedule, costs)
        assert bound <= timeline.total_s
        assert bound >= 0.95 * timeline.total_s


class TestPruningNeverChangesArgmax:
    def test_exhaustive_small_lattice(self):
        """The pruned schedule sweep == the unpruned one, over an exhaustive
        (p, m, f, b, weight-share, p2p) lattice -- same kind, same time."""
        lattice = [
            (p, m, forward, backward, share, p2p)
            for p in (1, 2, 3, 4)
            for m in (1, 2, 4, 8, 12)
            for forward, backward in ((1.0, 2.0), (0.5, 3.0), (2.0, 1.0))
            for share in (None, 0.3, 0.5)
            for p2p in (0.0, 0.1)
        ]
        pruned_away = 0
        for p, m, forward, backward, share, p2p in lattice:
            parallel = ParallelismConfig(
                pipeline_parallel=p, micro_batches=max(m, p),
            )
            stats = SearchStats()
            pruned = sweep_schedules(
                parallel, forward, backward,
                num_micro_batches=m, p2p_time_s=p2p,
                backward_weight_fraction=share,
                prune=True, stats=stats,
            )
            unpruned = sweep_schedules(
                parallel, forward, backward,
                num_micro_batches=m, p2p_time_s=p2p,
                backward_weight_fraction=share,
                prune=False,
            )
            assert pruned[0] is unpruned[0], (p, m, forward, backward, share, p2p)
            assert pruned[1].total_s == unpruned[1].total_s
            pruned_away += stats.schedules_pruned
        # The lattice must actually exercise pruning, or the test is vacuous.
        assert pruned_away > 0

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.05, max_value=2.0),
        st.floats(min_value=0.05, max_value=4.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_randomized_points(self, p, m, forward, backward, share):
        parallel = ParallelismConfig(pipeline_parallel=p, micro_batches=max(m, p))
        pruned = sweep_schedules(
            parallel, forward, backward, num_micro_batches=m,
            backward_weight_fraction=share, prune=True,
        )
        unpruned = sweep_schedules(
            parallel, forward, backward, num_micro_batches=m,
            backward_weight_fraction=share, prune=False,
        )
        assert pruned[0] is unpruned[0]
        assert pruned[1].total_s == unpruned[1].total_s


class TestStrategyPruningNeverChangesArgmax:
    """find_best_strategy with a per-strategy analytic floor selects exactly
    the candidate an exhaustive in-order sweep selects -- same strategy, same
    time -- as long as the floor is a (safety-scaled) true lower bound."""

    @staticmethod
    def _lattice():
        """A deterministic exhaustive candidate lattice with ties and
        infeasible points.  Times are a fixed function of the degrees, so
        the test re-derives the same search every run."""
        candidates = []
        for pp in (1, 2, 4):
            for tp in (1, 2, 4):
                for mb in (8, 16):
                    candidates.append(ParallelismConfig(
                        tensor_parallel=tp, pipeline_parallel=pp,
                        data_parallel=1, micro_batches=mb,
                    ))
        def true_time(parallel):
            # Deliberately produces exact ties: time depends only on
            # (pp, tp), not on micro_batches, so each (pp, tp) pair appears
            # twice with identical times -- the index tie-break must keep
            # the first-enumerated one.
            return 100.0 / parallel.pipeline_parallel + 7.0 * parallel.tensor_parallel
        def feasible(parallel):
            return not (parallel.pipeline_parallel == 4 and parallel.tensor_parallel == 4)
        def evaluate(parallel):
            if not feasible(parallel):
                return False, float("inf"), "oom"
            return True, true_time(parallel), None
        def floor(parallel):
            # A true lower bound: 60% of the real time (infeasible points
            # get a floor too -- pruning them is harmless).
            return 0.6 * true_time(parallel)
        return candidates, evaluate, floor

    def test_exhaustive_lattice(self):
        candidates, evaluate, floor = self._lattice()
        stats = SearchStats()
        pruned_best, pruned_evaluated = find_best_strategy(
            candidates, evaluate, strategy_bound=floor, stats=stats,
        )
        plain_best, plain_evaluated = find_best_strategy(candidates, evaluate)
        assert pruned_best is not None and plain_best is not None
        assert pruned_best.parallel == plain_best.parallel
        assert pruned_best.iteration_time_s == plain_best.iteration_time_s
        # The lattice must actually exercise pruning, or the test is vacuous.
        assert stats.strategies_pruned > 0
        assert stats.strategies_evaluated == len(pruned_evaluated)
        assert stats.strategies_evaluated + stats.strategies_pruned == len(candidates)
        assert len(plain_evaluated) == len(candidates)

    @given(st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=100.0),  # true time
            st.booleans(),                              # feasible
            st.floats(min_value=0.0, max_value=1.0),    # floor tightness
        ),
        min_size=1, max_size=24,
    ))
    @settings(max_examples=100, deadline=None)
    def test_randomized_times_and_floors(self, spec):
        """For arbitrary candidate times, feasibility patterns and per-
        candidate floor tightness (any floor <= the true time), pruning
        never changes the selected candidate."""
        candidates = [
            ParallelismConfig(micro_batches=index + 1)
            for index in range(len(spec))
        ]
        table = {c: entry for c, entry in zip(candidates, spec)}
        def evaluate(parallel):
            time_s, feasible, _ = table[parallel]
            if not feasible:
                return False, float("inf"), "oom"
            return True, time_s, None
        def floor(parallel):
            time_s, _, tightness = table[parallel]
            return tightness * time_s * (1.0 - 1e-9)
        stats = SearchStats()
        pruned_best, _ = find_best_strategy(
            candidates, evaluate, strategy_bound=floor, stats=stats,
        )
        plain_best, _ = find_best_strategy(candidates, evaluate)
        if plain_best is None:
            assert pruned_best is None
            # With no feasible incumbent nothing can be pruned.
            assert stats.strategies_pruned == 0
        else:
            assert pruned_best is not None
            assert pruned_best.parallel == plain_best.parallel
            assert pruned_best.iteration_time_s == plain_best.iteration_time_s

    def test_real_system_search_is_invariant_under_pruning(self):
        """MemoSystem's auto search: the analytic floor prunes whole
        parallelism points yet reports the identical strategy and numbers."""
        from repro.config import tokens
        from repro.systems.base import Workload
        from repro.systems.memo import MemoSystem

        workload = Workload("7B", tokens(64), 16, global_batch_samples=64)
        pruned = MemoSystem(pipeline_schedule="auto").run(workload)
        plain = MemoSystem(
            pipeline_schedule="auto", prune_strategy_search=False,
        ).run(workload)
        assert pruned.feasible and plain.feasible
        assert pruned.parallel == plain.parallel
        assert pruned.iteration_time_s == plain.iteration_time_s
        assert pruned.mfu == plain.mfu
        assert pruned.strategies_pruned > 0
        assert plain.strategies_pruned == 0
        assert plain.strategies_evaluated >= pruned.strategies_evaluated


class TestRiskObjectivePruningNeverChangesArgmax:
    """Jitter multipliers are >= 1, so every draw's makespan -- and therefore
    every risk score (mean/p50/p95/p99/cvar of the draws) -- sits at or above
    the deterministic makespan and its analytic lower bound.  Pruning against
    the incumbent's risk score is then just as conservative as deterministic
    pruning, and the selected candidate must be identical with and without
    it; with zero jitter the risk-adjusted sweep must reproduce the
    deterministic selection exactly."""

    JITTER = JitterSpec(compute_sigma=0.08, straggler_prob=0.15, straggler_alpha=3.0)

    def test_exhaustive_small_lattice_p99(self):
        lattice = [
            (p, m, forward, backward, share)
            for p in (2, 3, 4)
            for m in (2, 4, 8)
            for forward, backward in ((1.0, 2.0), (0.5, 3.0), (2.0, 1.0))
            for share in (None, 0.4)
        ]
        pruned_away = 0
        for p, m, forward, backward, share in lattice:
            parallel = ParallelismConfig(
                pipeline_parallel=p, micro_batches=max(m, p),
            )
            stats = SearchStats()
            pruned = sweep_schedules(
                parallel, forward, backward,
                num_micro_batches=m, backward_weight_fraction=share,
                prune=True, stats=stats,
                objective="p99", jitter=self.JITTER, replicas=8, seed=5,
            )
            unpruned = sweep_schedules(
                parallel, forward, backward,
                num_micro_batches=m, backward_weight_fraction=share,
                prune=False,
                objective="p99", jitter=self.JITTER, replicas=8, seed=5,
            )
            assert pruned[0] is unpruned[0], (p, m, forward, backward, share)
            assert pruned[1].total_s == unpruned[1].total_s
            pruned_away += stats.schedules_pruned
        assert pruned_away > 0

    def test_zero_jitter_mean_reproduces_deterministic_selection(self):
        """objective='mean' with the null spec is bit-identical to today's
        deterministic sweep -- same kind object, same timeline numbers."""
        for p, m in ((2, 4), (4, 8), (4, 12)):
            parallel = ParallelismConfig(pipeline_parallel=p, micro_batches=m)
            deterministic = sweep_schedules(
                parallel, 1.0, 2.0, num_micro_batches=m,
                backward_weight_fraction=0.4,
            )
            risk = sweep_schedules(
                parallel, 1.0, 2.0, num_micro_batches=m,
                backward_weight_fraction=0.4,
                objective="mean", jitter=JitterSpec(), replicas=8, seed=0,
            )
            assert risk[0] is deterministic[0]
            assert risk[1].total_s == deterministic[1].total_s
            assert risk[1].bubble_fraction == deterministic[1].bubble_fraction

    def test_real_system_p99_search_is_invariant_under_pruning(self):
        """MemoSystem under a p99 objective: both pruning levels stay
        argmax-invariant when candidates compete on the jittered tail."""
        from repro.config import tokens
        from repro.systems.base import Workload
        from repro.systems.memo import MemoSystem

        workload = Workload("7B", tokens(64), 16, global_batch_samples=64)
        kwargs = dict(
            pipeline_schedule="auto", jitter=self.JITTER,
            risk_objective="p99", monte_carlo_replicas=4, monte_carlo_seed=11,
        )
        pruned = MemoSystem(**kwargs).run(workload)
        plain = MemoSystem(
            **kwargs, prune_strategy_search=False, prune_schedule_sweep=False,
        ).run(workload)
        assert pruned.feasible and plain.feasible
        assert pruned.parallel == plain.parallel
        assert pruned.iteration_time_s == plain.iteration_time_s

    def test_zero_jitter_system_report_is_bit_identical(self):
        """The stochastic layer present-but-disabled changes nothing: the
        whole TrainingReport matches the deterministic system's field for
        field."""
        from repro.config import tokens
        from repro.systems.base import Workload
        from repro.systems.memo import MemoSystem

        workload = Workload("7B", tokens(64), 16, global_batch_samples=64)
        deterministic = MemoSystem(pipeline_schedule="auto").run(workload)
        disabled = MemoSystem(
            pipeline_schedule="auto", jitter="0", risk_objective="mean",
        ).run(workload)
        assert disabled.parallel == deterministic.parallel
        assert disabled.iteration_time_s == deterministic.iteration_time_s
        assert disabled.mfu == deterministic.mfu
        assert disabled.tgs == deterministic.tgs
        assert disabled.notes == deterministic.notes
        assert disabled.makespan_distribution is None
