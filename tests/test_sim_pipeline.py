"""Tests for pipeline schedules and the event-driven pipeline simulator."""

import pytest

from repro.config import tokens
from repro.parallel.search import SearchStats, resolve_schedule
from repro.parallel.strategy import OffloadMode, ParallelismConfig, RecomputeMode
from repro.sim.executor import LayerTask, simulate_iteration
from repro.sim.engine import SimulationEngine
from repro.sim.fastpath import evaluate_schedule
from repro.sim.pipeline import (
    StageCosts,
    peak_activation_bytes,
    simulate_pipeline,
    stage_costs_from_iteration,
    stage_peak_memory,
)
from repro.sim.schedules import (
    OpKind,
    PipelineSchedule,
    ScheduleKind,
    StageOp,
    build_schedule,
)
from repro.systems.base import Workload
from repro.systems.megatron import MegatronSystem

from schedule_sweep import sweep_schedules

GB = 1e9


def uniform_costs(schedule, forward=1.0, backward=2.0, **kwargs):
    return StageCosts(
        forward_s=forward / schedule.num_chunks,
        backward_s=backward / schedule.num_chunks,
        **kwargs,
    )


class TestScheduleConstruction:
    @pytest.mark.parametrize("kind", list(ScheduleKind))
    def test_op_counts_and_validity(self, kind):
        chunks = 2 if kind in (ScheduleKind.INTERLEAVED, ScheduleKind.ZB_V) else 1
        schedule = build_schedule(kind, num_stages=4, num_micro_batches=8, num_chunks=chunks)
        schedule.validate()
        for ops in schedule.rank_ops:
            assert len(ops) == schedule.ops_per_rank
            forwards = [op for op in ops if op.kind is OpKind.FORWARD]
            assert len(forwards) == 8 * chunks

    def test_gpipe_runs_all_forwards_first(self):
        schedule = build_schedule(ScheduleKind.GPIPE, 4, 6)
        for ops in schedule.rank_ops:
            kinds = [op.kind for op in ops]
            assert kinds == [OpKind.FORWARD] * 6 + [OpKind.BACKWARD] * 6

    def test_1f1b_warmup_depth_depends_on_rank(self):
        schedule = build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8)
        for rank, ops in enumerate(schedule.rank_ops):
            warmup = 0
            for op in ops:
                if op.kind is OpKind.BACKWARD:
                    break
                warmup += 1
            # The steady state's first forward immediately follows the
            # (p - 1 - rank) warmup forwards, then backwards alternate.
            assert warmup == min(4 - 1 - rank, 8) + 1

    def test_1f1b_in_flight_bound(self):
        schedule = build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8)
        assert schedule.peak_in_flight() == [4, 3, 2, 1]
        assert max(schedule.peak_in_flight()) == min(4, 8)

    def test_gpipe_keeps_every_micro_batch_in_flight(self):
        schedule = build_schedule(ScheduleKind.GPIPE, 4, 8)
        assert schedule.peak_in_flight() == [8, 8, 8, 8]

    def test_interleaved_virtual_stage_layout(self):
        schedule = build_schedule(ScheduleKind.INTERLEAVED, 2, 4, num_chunks=2)
        stages = {op.virtual_stage for ops in schedule.rank_ops for op in ops}
        assert stages == {0, 1, 2, 3}
        for rank, ops in enumerate(schedule.rank_ops):
            assert {op.virtual_stage for op in ops} == {rank, 2 + rank}

    def test_interleaved_requires_divisible_micro_batches(self):
        with pytest.raises(ValueError, match="divisible"):
            build_schedule(ScheduleKind.INTERLEAVED, 4, 6, num_chunks=2)

    def test_non_interleaved_rejects_chunks(self):
        with pytest.raises(ValueError, match="chunk"):
            build_schedule(ScheduleKind.GPIPE, 4, 8, num_chunks=2)

    def test_from_name(self):
        assert ScheduleKind.from_name("1F1B") is ScheduleKind.ONE_F_ONE_B
        assert ScheduleKind.from_name("ZB-H1") is ScheduleKind.ZB_H1
        assert ScheduleKind.from_name("ZB-V") is ScheduleKind.ZB_V
        # The error lists every valid name, so typos are self-diagnosing.
        with pytest.raises(ValueError, match="'gpipe'.*'1f1b'.*'zb-v'"):
            ScheduleKind.from_name("zb-h2")

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            build_schedule(ScheduleKind.GPIPE, 0, 4)
        with pytest.raises(ValueError):
            build_schedule(ScheduleKind.GPIPE, 2, 0)


class TestZeroBubbleSchedule:
    def test_op_counts_and_kinds(self):
        schedule = build_schedule(ScheduleKind.ZB_H1, 4, 8)
        assert schedule.ops_per_rank == 3 * 8
        for ops in schedule.rank_ops:
            kinds = [op.kind for op in ops]
            assert kinds.count(OpKind.FORWARD) == 8
            assert kinds.count(OpKind.BACKWARD_INPUT) == 8
            assert kinds.count(OpKind.BACKWARD_WEIGHT) == 8
            assert OpKind.BACKWARD not in kinds

    def test_first_rank_runs_weight_ops_fused(self):
        schedule = build_schedule(ScheduleKind.ZB_H1, 4, 8)
        ops = schedule.rank_ops[0]
        for position, op in enumerate(ops):
            if op.kind is OpKind.BACKWARD_INPUT:
                follower = ops[position + 1]
                assert follower.kind is OpKind.BACKWARD_WEIGHT
                assert follower.micro_batch == op.micro_batch

    def test_weight_lag_grows_with_rank(self):
        schedule = build_schedule(ScheduleKind.ZB_H1, 4, 8)
        assert schedule.peak_deferred_weights() == [1, 2, 3, 4]

    def test_keeps_the_1f1b_activation_bound(self):
        for p, m in [(2, 4), (4, 8), (4, 2), (8, 16)]:
            zb = build_schedule(ScheduleKind.ZB_H1, p, m)
            one_f = build_schedule(ScheduleKind.ONE_F_ONE_B, p, m)
            assert zb.peak_in_flight() == one_f.peak_in_flight()

    def test_rejects_interleaving(self):
        with pytest.raises(ValueError, match="one chunk"):
            build_schedule(ScheduleKind.ZB_H1, 4, 8, num_chunks=2)

    def test_validate_rejects_weight_before_input(self):
        op_f = StageOp(OpKind.FORWARD, rank=0, chunk=0, micro_batch=0, virtual_stage=0)
        op_w = StageOp(OpKind.BACKWARD_WEIGHT, rank=0, chunk=0, micro_batch=0, virtual_stage=0)
        op_b = StageOp(OpKind.BACKWARD_INPUT, rank=0, chunk=0, micro_batch=0, virtual_stage=0)
        bad = PipelineSchedule(
            kind=ScheduleKind.ZB_H1, num_stages=1, num_micro_batches=1,
            num_chunks=1, rank_ops=((op_f, op_w, op_b),),
        )
        with pytest.raises(ValueError, match="grad-input"):
            bad.validate()

    def test_validate_rejects_fused_backward_in_split_schedule(self):
        op_f = StageOp(OpKind.FORWARD, rank=0, chunk=0, micro_batch=0, virtual_stage=0)
        op_b = StageOp(OpKind.BACKWARD, rank=0, chunk=0, micro_batch=0, virtual_stage=0)
        op_w = StageOp(OpKind.BACKWARD_WEIGHT, rank=0, chunk=0, micro_batch=0, virtual_stage=0)
        bad = PipelineSchedule(
            kind=ScheduleKind.ZB_H1, num_stages=1, num_micro_batches=1,
            num_chunks=1, rank_ops=((op_f, op_b, op_w),),
        )
        with pytest.raises(ValueError, match="mixes"):
            bad.validate()

    def test_split_costs_validation(self):
        with pytest.raises(ValueError, match="backward_weight_s"):
            StageCosts(forward_s=1.0, backward_s=2.0, backward_weight_s=3.0)
        costs = StageCosts(forward_s=1.0, backward_s=2.0)
        assert costs.split_backward_input_s == pytest.approx(1.0)
        assert costs.split_backward_weight_s == pytest.approx(1.0)

    def test_zb_h1_reaches_its_lower_bound_for_equal_b_and_w(self):
        """With F = B = W and free P2P, ZB-H1 hits (p-1)F + m(F+B+W)."""
        for p, m in [(2, 4), (3, 6), (4, 8)]:
            schedule = build_schedule(ScheduleKind.ZB_H1, p, m)
            timeline = simulate_pipeline(
                schedule,
                StageCosts(forward_s=1.0, backward_s=2.0, backward_weight_s=1.0),
            )
            assert timeline.total_s == pytest.approx((p - 1) + 3 * m, abs=1e-9)

    def test_weight_stash_raises_peak_memory_on_later_ranks(self):
        schedule = build_schedule(ScheduleKind.ZB_H1, 4, 8)
        plain = peak_activation_bytes(
            schedule, StageCosts(1.0, 2.0, activation_bytes=10.0),
        )
        stashed = peak_activation_bytes(
            schedule,
            StageCosts(1.0, 2.0, activation_bytes=10.0, weight_grad_bytes=5.0),
        )
        assert stashed[0] == plain[0]  # rank 0 defers nothing
        assert all(s >= p for s, p in zip(stashed, plain))
        assert stashed[-1] > plain[-1]


class TestBubbleFraction:
    @pytest.mark.parametrize("kind, chunks", [
        (ScheduleKind.GPIPE, 1),
        (ScheduleKind.ONE_F_ONE_B, 1),
        (ScheduleKind.INTERLEAVED, 2),
    ])
    @pytest.mark.parametrize("p, m", [(2, 2), (4, 8), (4, 16), (8, 16)])
    def test_measured_bubble_matches_analytic_bound(self, kind, chunks, p, m):
        """Acceptance: measured bubble within 5% of (p-1)/(vm+p-1), no swap."""
        schedule = build_schedule(kind, p, m, num_chunks=chunks)
        timeline = simulate_pipeline(schedule, uniform_costs(schedule))
        assert timeline.bubble_fraction == pytest.approx(
            timeline.analytic_bubble_fraction, rel=0.05, abs=1e-9,
        )

    def test_uniform_stages_hit_the_bound_exactly(self):
        schedule = build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8)
        timeline = simulate_pipeline(schedule, uniform_costs(schedule, 1.0, 3.0))
        assert timeline.bubble_fraction == pytest.approx(3 / 11, abs=1e-9)
        assert timeline.total_s == pytest.approx((8 + 4 - 1) * 4.0, abs=1e-9)

    def test_interleaving_shrinks_the_bubble(self):
        plain = simulate_pipeline(
            build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8),
            StageCosts(forward_s=1.0, backward_s=2.0),
        )
        interleaved_schedule = build_schedule(ScheduleKind.INTERLEAVED, 4, 8, num_chunks=2)
        interleaved = simulate_pipeline(interleaved_schedule, uniform_costs(interleaved_schedule))
        assert interleaved.bubble_fraction < plain.bubble_fraction
        assert interleaved.total_s < plain.total_s

    def test_more_micro_batches_shrink_the_bubble(self):
        few = simulate_pipeline(
            build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 4),
            StageCosts(forward_s=1.0, backward_s=2.0),
        )
        many = simulate_pipeline(
            build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 32),
            StageCosts(forward_s=1.0, backward_s=2.0),
        )
        assert many.bubble_fraction < few.bubble_fraction


class TestSingleStageEquivalence:
    """With pipeline_parallel == 1 the pipeline simulator reduces to the
    single-stage executor's timeline."""

    def make_tasks(self, offload_bytes=0.0):
        tasks = []
        for index in range(6):
            resident = index >= 4
            tasks.append(LayerTask(
                forward_compute_s=0.5, backward_compute_s=1.0,
                offload_bytes=0.0 if resident else offload_bytes,
                prefetch_bytes=0.0 if resident else offload_bytes,
                resident=resident,
            ))
        return tasks

    @pytest.mark.parametrize("offload_bytes", [0.0, 5 * GB])
    def test_one_stage_one_micro_batch_matches_executor(self, offload_bytes):
        iteration = simulate_iteration(
            self.make_tasks(offload_bytes), pcie_bandwidth_bytes_per_s=10 * GB,
        )
        schedule = build_schedule(ScheduleKind.ONE_F_ONE_B, 1, 1)
        pipeline = simulate_pipeline(
            schedule, stage_costs_from_iteration(iteration),
        )
        assert pipeline.total_s == pytest.approx(iteration.total_s)
        assert pipeline.bubble_fraction == pytest.approx(0.0, abs=1e-12)

    def test_one_stage_many_micro_batches_is_sequential(self):
        iteration = simulate_iteration(self.make_tasks(), pcie_bandwidth_bytes_per_s=10 * GB)
        for kind in (ScheduleKind.GPIPE, ScheduleKind.ONE_F_ONE_B):
            schedule = build_schedule(kind, 1, 5)
            pipeline = simulate_pipeline(schedule, stage_costs_from_iteration(iteration))
            assert pipeline.total_s == pytest.approx(5 * iteration.total_s)


class TestPipelineSimulation:
    def test_p2p_latency_delays_the_pipeline(self):
        schedule = build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8)
        costs = StageCosts(forward_s=1.0, backward_s=2.0, p2p_bytes=1.0)
        fast = simulate_pipeline(schedule, costs, p2p_bandwidth_bytes_per_s=1e12)
        slow = simulate_pipeline(
            schedule, costs, p2p_bandwidth_bytes_per_s=1e12, p2p_latency_s=0.25,
        )
        assert slow.total_s > fast.total_s

    def test_p2p_between_co_located_chunks_is_free(self):
        # p = 1, v = 2: both virtual stages live on the same rank.
        schedule = build_schedule(ScheduleKind.INTERLEAVED, 1, 3, num_chunks=1)
        costs = StageCosts(forward_s=1.0, backward_s=1.0, p2p_bytes=1e12)
        timeline = simulate_pipeline(schedule, costs, p2p_bandwidth_bytes_per_s=1.0)
        assert timeline.total_s == pytest.approx(6.0)

    def test_offload_and_prefetch_occupy_stage_streams(self):
        schedule = build_schedule(ScheduleKind.ONE_F_ONE_B, 2, 4)
        costs = StageCosts(
            forward_s=1.0, backward_s=2.0, offload_bytes=2 * GB, prefetch_bytes=2 * GB,
        )
        timeline = simulate_pipeline(schedule, costs, pcie_bandwidth_bytes_per_s=10 * GB)
        assert all(busy > 0 for busy in timeline.rank_d2h_busy_s)
        assert all(busy > 0 for busy in timeline.rank_h2d_busy_s)

    def test_slow_prefetch_stalls_the_backward(self):
        schedule = build_schedule(ScheduleKind.ONE_F_ONE_B, 2, 4)
        base = StageCosts(forward_s=1.0, backward_s=2.0)
        swapped = StageCosts(
            forward_s=1.0, backward_s=2.0, offload_bytes=50 * GB, prefetch_bytes=50 * GB,
        )
        fast = simulate_pipeline(schedule, base, pcie_bandwidth_bytes_per_s=10 * GB)
        slow = simulate_pipeline(schedule, swapped, pcie_bandwidth_bytes_per_s=10 * GB)
        assert slow.total_s > fast.total_s

    def test_records_cover_every_op(self):
        schedule = build_schedule(ScheduleKind.ONE_F_ONE_B, 3, 6)
        timeline = simulate_pipeline(schedule, StageCosts(forward_s=1.0, backward_s=1.0))
        assert len(timeline.records) == 3 * schedule.ops_per_rank
        first = timeline.record(OpKind.FORWARD, 0, 0)
        assert first.start_s == pytest.approx(0.0)
        with pytest.raises(KeyError):
            timeline.record(OpKind.FORWARD, 0, 99)

    def test_runs_on_a_caller_supplied_engine(self):
        engine = SimulationEngine()
        schedule = build_schedule(ScheduleKind.GPIPE, 2, 2)
        timeline = simulate_pipeline(engine=engine, schedule=schedule,
                                     costs=StageCosts(forward_s=1.0, backward_s=1.0))
        assert engine.now == pytest.approx(timeline.total_s)
        assert engine.pending == 0

    def test_deadlocked_schedule_is_detected(self):
        op_b = StageOp(OpKind.BACKWARD, rank=0, chunk=0, micro_batch=0, virtual_stage=0)
        op_f = StageOp(OpKind.FORWARD, rank=0, chunk=0, micro_batch=0, virtual_stage=0)
        bad = PipelineSchedule(
            kind=ScheduleKind.GPIPE, num_stages=1, num_micro_batches=1,
            num_chunks=1, rank_ops=((op_b, op_f),),
        )
        with pytest.raises(RuntimeError, match="deadlock"):
            simulate_pipeline(bad, StageCosts(forward_s=1.0, backward_s=1.0))

    def test_input_validation(self):
        schedule = build_schedule(ScheduleKind.GPIPE, 2, 2)
        costs = StageCosts(forward_s=1.0, backward_s=1.0)
        with pytest.raises(ValueError):
            simulate_pipeline(schedule, costs, p2p_bandwidth_bytes_per_s=0.0)
        with pytest.raises(ValueError):
            simulate_pipeline(schedule, costs, p2p_latency_s=-1.0)
        with pytest.raises(ValueError):
            simulate_pipeline(schedule, [costs])  # wrong per-stage count
        with pytest.raises(ValueError):
            StageCosts(forward_s=-1.0, backward_s=1.0)


class TestStageMemory:
    def test_peak_activation_bytes_follow_in_flight_counts(self):
        schedule = build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8)
        peaks = peak_activation_bytes(schedule, StageCosts(1.0, 1.0, activation_bytes=3.0))
        assert peaks == [12.0, 9.0, 6.0, 3.0]

    def test_1f1b_memory_bounded_by_min_m_p_micro_batches(self):
        """Acceptance: 1F1B stage memory <= min(m, p) x per-micro-batch bytes."""
        per_mb = 7.0
        for p, m in [(2, 8), (4, 8), (8, 4), (4, 2)]:
            schedule = build_schedule(ScheduleKind.ONE_F_ONE_B, p, m)
            peaks = peak_activation_bytes(
                schedule, StageCosts(1.0, 1.0, activation_bytes=per_mb)
            )
            assert max(peaks) <= min(m, p) * per_mb + 1e-9

    def test_stage_peak_memory_composes_shared_and_per_micro_batch_parts(self):
        schedule = build_schedule(ScheduleKind.ONE_F_ONE_B, 2, 4)
        stages = stage_peak_memory(
            schedule,
            StageCosts(1.0, 1.0, activation_bytes=10.0),
            base_bytes=100.0,
            transient_peak_bytes=5.0,
            rounding_buffer_bytes=2.0,
        )
        # Stage 0 holds min(p, m) = 2 micro-batches; planner transients and
        # rounding buffers are charged once.
        assert stages[0].peak_micro_batches == 2
        assert stages[0].total_bytes == pytest.approx(100.0 + 20.0 + 5.0 + 2.0)
        assert stages[1].total_bytes == pytest.approx(100.0 + 10.0 + 5.0 + 2.0)

    def test_base_bytes_broadcast_or_per_rank(self):
        schedule = build_schedule(ScheduleKind.GPIPE, 2, 2)
        costs = StageCosts(1.0, 1.0, activation_bytes=1.0)
        broadcast = stage_peak_memory(schedule, costs, base_bytes=4.0)
        explicit = stage_peak_memory(schedule, costs, base_bytes=[4.0, 4.0])
        assert [s.total_bytes for s in broadcast] == [s.total_bytes for s in explicit]
        with pytest.raises(ValueError):
            stage_peak_memory(schedule, costs, base_bytes=[1.0])


class TestSearchIntegration:
    def make_parallel(self, pp=4, m=8):
        return ParallelismConfig(
            tensor_parallel=2, pipeline_parallel=pp, data_parallel=1, micro_batches=m,
        )

    def test_resolve_schedule_falls_back_to_1f1b(self):
        parallel = self.make_parallel(pp=4, m=6)  # 6 % 4 != 0
        schedule = resolve_schedule(parallel, ScheduleKind.INTERLEAVED, num_chunks=2)
        assert schedule.kind is ScheduleKind.ONE_F_ONE_B
        assert schedule.num_chunks == 1

    def test_simulated_bubble_matches_analytic_for_uniform_stages(self):
        bubble = evaluate_schedule(
            build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8),
            StageCosts(forward_s=1.0, backward_s=2.0),
        ).bubble_fraction
        assert bubble == pytest.approx(3 / 11, abs=1e-9)
        assert evaluate_schedule(
            build_schedule(ScheduleKind.ONE_F_ONE_B, 1, 8),
            StageCosts(forward_s=1.0, backward_s=2.0),
        ).bubble_fraction == 0.0

    def test_evaluated_schedule_charges_p2p_time(self):
        schedule = build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8)
        free = evaluate_schedule(schedule, StageCosts(forward_s=1.0, backward_s=2.0))
        costly = evaluate_schedule(
            schedule, StageCosts(forward_s=1.0, backward_s=2.0, p2p_bytes=1.0),
            p2p_bandwidth_bytes_per_s=1.0 / 0.5,
        )
        assert costly.total_s > free.total_s

    def test_schedule_sweep_prefers_zero_bubble(self):
        parallel = self.make_parallel(pp=4, m=8)
        kind, timeline = sweep_schedules(
            parallel, forward_s=1.0, backward_s=2.0, backward_weight_fraction=0.5,
        )
        # In the zero-bubble regime (W ~ B_input) the V placement wins: it
        # halves the pipeline fill on top of ZB-H1's deferred W ops.
        assert kind is ScheduleKind.ZB_V
        one_f = evaluate_schedule(
            build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8),
            StageCosts(forward_s=1.0, backward_s=2.0),
        )
        assert timeline.total_s < one_f.total_s
        zb_h1 = evaluate_schedule(
            build_schedule(ScheduleKind.ZB_H1, 4, 8),
            StageCosts(forward_s=1.0, backward_s=2.0, backward_weight_s=1.0),
        )
        assert timeline.total_s <= zb_h1.total_s

    def test_schedule_sweep_dedups_degenerate_candidates(self):
        # m % p != 0, so interleaved resolves to plain 1F1B and must not be
        # simulated twice; the sweep still returns a winner.
        parallel = self.make_parallel(pp=4, m=6)
        stats = SearchStats()
        kind, timeline = sweep_schedules(
            parallel, forward_s=1.0, backward_s=2.0, backward_weight_fraction=0.5,
            stats=stats,
        )
        assert kind in (ScheduleKind.ONE_F_ONE_B, ScheduleKind.ZB_H1, ScheduleKind.ZB_V)
        assert timeline.total_s > 0
        assert stats.schedules_simulated + stats.schedules_pruned == 3

    def test_empty_schedule_request_is_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            MegatronSystem(pipeline_schedule="")


class TestSystemsIntegration:
    def test_pp_strategy_is_scored_by_the_simulated_schedule(self):
        system = MegatronSystem()
        workload = Workload("7B", tokens(64), 8)
        parallel = ParallelismConfig(
            tensor_parallel=4, pipeline_parallel=2, data_parallel=1,
            micro_batches=16, recompute=RecomputeMode.FULL,
        )
        evaluation = system._shared_evaluation(workload, parallel, alpha=0.0)
        assert evaluation.feasible
        assert evaluation.pipeline is not None
        # The schedule ran the workload's 16 micro-iterations, not the
        # placeholder micro_batches of the config.
        assert evaluation.pipeline.schedule.num_micro_batches == 16
        # Heterogeneous stage costs (embedding-heavy stage 0, classifier-heavy
        # last stage) push the measured bubble off the uniform-stage analytic
        # bound, but it must stay in its neighbourhood for a mild imbalance.
        assert evaluation.pipeline.bubble_fraction == pytest.approx(
            evaluation.pipeline.analytic_bubble_fraction, rel=0.30,
        )

    def test_zb_h1_evaluation_beats_1f1b(self):
        workload = Workload("7B", tokens(64), 8)
        parallel = ParallelismConfig(
            tensor_parallel=4, pipeline_parallel=2, data_parallel=1,
            micro_batches=16, recompute=RecomputeMode.FULL,
        )
        one_f = MegatronSystem(pipeline_schedule="1f1b")._shared_evaluation(
            workload, parallel, alpha=0.0,
        )
        zb = MegatronSystem(pipeline_schedule="zb-h1")._shared_evaluation(
            workload, parallel, alpha=0.0,
        )
        assert one_f.feasible and zb.feasible
        assert zb.pipeline.schedule.kind is ScheduleKind.ZB_H1
        assert zb.pipeline.bubble_fraction < one_f.pipeline.bubble_fraction
        assert zb.iteration_time_s < one_f.iteration_time_s

    def test_auto_schedule_picks_the_fastest_feasible_candidate(self):
        workload = Workload("7B", tokens(64), 8)
        parallel = ParallelismConfig(
            tensor_parallel=4, pipeline_parallel=2, data_parallel=1,
            micro_batches=16, recompute=RecomputeMode.FULL,
        )
        auto = MegatronSystem(pipeline_schedule="auto")._shared_evaluation(
            workload, parallel, alpha=0.0,
        )
        assert auto.feasible
        explicit = [
            MegatronSystem(pipeline_schedule=kind)._shared_evaluation(
                workload, parallel, alpha=0.0,
            )
            for kind in ("1f1b", "zb-h1", "zb-v")
        ]
        # The auto sweep tries real interleaving (two chunks) even though the
        # system default is a single chunk per rank.
        explicit.append(
            MegatronSystem(
                pipeline_schedule="interleaved", pipeline_chunks=2,
            )._shared_evaluation(workload, parallel, alpha=0.0)
        )
        floor = min(e.iteration_time_s for e in explicit if e.feasible)
        assert auto.iteration_time_s == pytest.approx(floor, rel=1e-9)

    def test_over_asked_chunk_count_degrades_instead_of_crashing(self):
        """pp * chunks beyond the layer count caps the chunks; legal strategy
        points must never raise out of the evaluation."""
        workload = Workload("7B", tokens(64), 8)
        parallel = ParallelismConfig(
            tensor_parallel=4, pipeline_parallel=2, data_parallel=1,
            micro_batches=16, recompute=RecomputeMode.FULL,
        )
        system = MegatronSystem(pipeline_schedule="interleaved", pipeline_chunks=64)
        evaluation = system._shared_evaluation(workload, parallel, alpha=0.0)
        assert evaluation.feasible
        # 7B has 32 layers: at pp=2 at most 16 chunks fit one layer each.
        assert evaluation.pipeline.schedule.num_chunks == 16

    def test_zb_memory_surcharge_is_per_rank(self):
        """Activations peak on rank 0, W stashes on the last rank; the memory
        model must not add the two cross-rank maxima together."""
        workload = Workload("7B", tokens(64), 8)
        parallel = ParallelismConfig(
            tensor_parallel=4, pipeline_parallel=2, data_parallel=1,
            micro_batches=16, recompute=RecomputeMode.FULL,
        )
        one_f = MegatronSystem(pipeline_schedule="1f1b")._shared_evaluation(
            workload, parallel, alpha=0.0,
        )
        zb = MegatronSystem(pipeline_schedule="zb-h1")._shared_evaluation(
            workload, parallel, alpha=0.0,
        )
        # p=2: in-flight [2, 1], deferred W [1, 2] -> combined per-rank max is
        # 2.5 (rank 0), not 2 + 0.5 * 2 = 3.
        ratio = (
            zb.memory.skeletal_activation_bytes / one_f.memory.skeletal_activation_bytes
        )
        assert ratio == pytest.approx(2.5 / 2.0, rel=1e-6)

    def test_legacy_analytic_path_still_available(self):
        workload = Workload("7B", tokens(64), 8)
        parallel = ParallelismConfig(
            tensor_parallel=4, pipeline_parallel=2, data_parallel=1,
            micro_batches=16, recompute=RecomputeMode.FULL,
        )
        legacy = MegatronSystem(pipeline_schedule=None)._shared_evaluation(
            workload, parallel, alpha=0.0,
        )
        assert legacy.feasible
        assert legacy.pipeline is None

    def test_schedule_is_chosen_at_construction(self):
        system = MegatronSystem()
        workload = Workload("7B", tokens(64), 8)
        report = MegatronSystem(pipeline_schedule="gpipe").run(workload)
        assert report.feasible
        # Another system's schedule leaves the default system's untouched.
        assert system.config.pipeline_schedule is ScheduleKind.ONE_F_ONE_B

    def test_schedule_name_parsed_in_constructor(self):
        system = MegatronSystem(pipeline_schedule="interleaved", pipeline_chunks=2)
        assert system.config.pipeline_schedule is ScheduleKind.INTERLEAVED
