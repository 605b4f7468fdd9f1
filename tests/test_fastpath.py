"""Unit tests for the fast-path evaluator, its caches, pruning counters,
the engine's record flag and the once-per-search degenerate-schedule warning."""

from __future__ import annotations

import math
import warnings

import pytest

from repro.cli import main
from repro.config import tokens
from repro.parallel.search import SearchStats, build_candidate_schedule, resolve_schedule_shape
from repro.parallel.strategy import DegenerateScheduleWarning, ParallelismConfig
from repro.sim.engine import SimulationEngine
from repro.sim.fastpath import (
    FastPathMismatchError,
    _check_against_oracle,
    cached_build_schedule,
    clear_fastpath_caches,
    compile_schedule_program,
    critical_path_timeline,
    critical_path_timeline_batch,
    evaluate_schedule,
    fastpath_cache_info,
    pipeline_lower_bound,
)
from repro.sim.pipeline import StageCosts, simulate_pipeline
from repro.sim.schedules import OpKind, PipelineSchedule, ScheduleKind, StageOp, build_schedule
from repro.systems.base import Workload
from repro.systems.memo import MemoSystem

from schedule_sweep import sweep_schedules

COSTS = StageCosts(forward_s=1.0, backward_s=2.0)


class TestScheduleCache:
    def test_cached_build_returns_shared_instance(self):
        first = cached_build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8, 1)
        second = cached_build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8, 1)
        assert first is second
        assert first.rank_ops == build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8).rank_ops

    def test_resolve_schedule_shares_the_cache(self):
        parallel = ParallelismConfig(pipeline_parallel=4, micro_batches=8)
        shape = resolve_schedule_shape(parallel, ScheduleKind.ONE_F_ONE_B)
        resolved = build_candidate_schedule(shape, lambda _: COSTS)
        assert resolved is cached_build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8, 1)

    def test_validate_rejects_out_of_range_indices(self):
        # The integer step encoding (chunk * m + micro_batch) must not let an
        # out-of-range micro-batch alias another chunk's step.
        schedule = PipelineSchedule(
            kind=ScheduleKind.INTERLEAVED,
            num_stages=1,
            num_micro_batches=2,
            num_chunks=2,
            rank_ops=(
                (
                    StageOp(OpKind.FORWARD, 0, 0, 0, 0),
                    StageOp(OpKind.FORWARD, 0, 0, 1, 0),
                    StageOp(OpKind.FORWARD, 0, 1, 0, 1),
                    StageOp(OpKind.FORWARD, 0, 1, 1, 1),
                    StageOp(OpKind.BACKWARD, 0, 1, 1, 1),
                    StageOp(OpKind.BACKWARD, 0, 1, 0, 1),
                    StageOp(OpKind.BACKWARD, 0, 0, 1, 0),
                    # micro_batch 2 is out of range; its step aliases
                    # (chunk=1, micro_batch=0), which has a forward.
                    StageOp(OpKind.BACKWARD, 0, 0, 2, 0),
                ),
            ),
        )
        with pytest.raises(ValueError, match="out of range"):
            schedule.validate()


class TestEvaluateSchedule:
    def test_fast_timeline_is_memoized(self):
        clear_fastpath_caches()
        schedule = cached_build_schedule(ScheduleKind.ZB_H1, 3, 6, 1)
        first = evaluate_schedule(schedule, COSTS)
        second = evaluate_schedule(schedule, COSTS)
        assert first is second
        info = fastpath_cache_info()
        assert info["timelines"].hits >= 1

    def test_event_engine_is_never_served_from_cache(self):
        schedule = cached_build_schedule(ScheduleKind.ONE_F_ONE_B, 2, 4, 1)
        first = evaluate_schedule(schedule, COSTS, engine="event")
        second = evaluate_schedule(schedule, COSTS, engine="event")
        assert first is not second
        assert first.total_s == second.total_s

    def test_hand_built_schedule_does_not_alias_the_canonical_cache(self):
        # Same (kind, p, m, v) structure key as the canonical 1F1B schedule,
        # but GPipe-ordered ops: the cache must not hand back the canonical
        # timeline for it.
        canonical = cached_build_schedule(ScheduleKind.ONE_F_ONE_B, 2, 2, 1)
        hand_built = PipelineSchedule(
            kind=ScheduleKind.ONE_F_ONE_B,
            num_stages=2,
            num_micro_batches=2,
            num_chunks=1,
            rank_ops=tuple(
                tuple(
                    [StageOp(OpKind.FORWARD, rank, 0, mb, rank) for mb in range(2)]
                    + [StageOp(OpKind.BACKWARD, rank, 0, mb, rank) for mb in (1, 0)]
                )
                for rank in range(2)
            ),
        )
        assert hand_built.rank_ops != canonical.rank_ops
        fast = evaluate_schedule(hand_built, COSTS)
        oracle = simulate_pipeline(hand_built, COSTS)
        assert fast.total_s == oracle.total_s

    def test_validate_matches_oracle(self):
        schedule = cached_build_schedule(ScheduleKind.INTERLEAVED, 2, 4, 2)
        timeline = evaluate_schedule(schedule, COSTS, validate=True)
        assert timeline.total_s == simulate_pipeline(schedule, COSTS).total_s

    def test_validate_raises_on_divergence(self):
        schedule = cached_build_schedule(ScheduleKind.ONE_F_ONE_B, 2, 2, 1)
        good = critical_path_timeline(schedule, COSTS)
        bad = critical_path_timeline(schedule, COSTS)
        bad.total_s += 1.0
        with pytest.raises(FastPathMismatchError, match="total_s"):
            _check_against_oracle(bad, good)

    def test_unknown_engine_rejected(self):
        schedule = cached_build_schedule(ScheduleKind.ONE_F_ONE_B, 2, 2, 1)
        with pytest.raises(ValueError, match="engine"):
            evaluate_schedule(schedule, COSTS, engine="warp")


class TestLowerBound:
    def test_matches_busiest_rank_for_pp1(self):
        schedule = build_schedule(ScheduleKind.ONE_F_ONE_B, 1, 5)
        bound = pipeline_lower_bound(schedule, COSTS)
        timeline = critical_path_timeline(schedule, COSTS)
        # A single stage has no bubble: the bound is the whole makespan.
        assert bound == pytest.approx(timeline.total_s, rel=1e-6)

    def test_includes_fill_and_drain_for_fused_kinds(self):
        schedule = build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 4)
        bound = pipeline_lower_bound(schedule, COSTS)
        work = 4 * (COSTS.forward_s + COSTS.backward_s)
        fill = 3 * COSTS.forward_s
        drain = 3 * COSTS.backward_s
        assert bound == pytest.approx(fill + work + drain, rel=1e-6)

    def test_transfer_hops_raise_the_bound(self):
        schedule = build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8)
        costly = StageCosts(forward_s=1.0, backward_s=2.0, p2p_bytes=1.0)
        free = pipeline_lower_bound(schedule, costly)
        slow = pipeline_lower_bound(schedule, costly, p2p_bandwidth_bytes_per_s=2.0)
        assert slow > free


class TestSearchPruning:
    def test_stats_count_pruned_candidates(self):
        parallel = ParallelismConfig(pipeline_parallel=4, micro_batches=8)
        stats = SearchStats()
        kind, timeline = sweep_schedules(
            parallel, 1.0, 2.0, backward_weight_fraction=0.5, stats=stats,
        )
        assert stats.schedules_simulated >= 1
        assert stats.schedules_simulated + stats.schedules_pruned >= 2
        assert timeline.total_s > 0
        # The zero-bubble kinds dominate 1F1B under these costs (the V
        # placement halves the fill on top of ZB-H1's W deferral); with the
        # bound ordering the fused 1F1B candidate is pruned, not simulated.
        assert kind is ScheduleKind.ZB_V
        assert stats.schedules_pruned >= 1

    def test_stats_add_accumulates(self):
        total = SearchStats()
        total.add(SearchStats(schedules_simulated=3, schedules_pruned=1))
        total.add(SearchStats(schedules_pruned=2))
        assert total.schedules_simulated == 3
        assert total.schedules_pruned == 3

    def test_training_report_exposes_sweep_counters(self):
        workload = Workload("7B", tokens(64), 16, global_batch_samples=64)
        report = MemoSystem(pipeline_schedule="auto").run(workload)
        assert report.feasible
        assert report.schedules_simulated > 0
        assert report.schedules_pruned > 0
        assert any("pruned" in note for note in report.notes)

    def test_pruning_does_not_change_the_selected_strategy(self):
        workload = Workload("7B", tokens(64), 16, global_batch_samples=64)
        pruned = MemoSystem(pipeline_schedule="auto").run(workload)
        unpruned = MemoSystem(
            pipeline_schedule="auto", prune_schedule_sweep=False,
        ).run(workload)
        assert pruned.parallel == unpruned.parallel
        assert pruned.iteration_time_s == unpruned.iteration_time_s
        if pruned.pipeline_timeline is not None:
            assert pruned.pipeline_timeline.schedule.kind is (
                unpruned.pipeline_timeline.schedule.kind
            )
        assert unpruned.schedules_pruned == 0

    def test_engines_report_identical_numbers(self):
        workload = Workload("7B", tokens(64), 16, global_batch_samples=64)
        fast = MemoSystem(pipeline_schedule="auto").run(workload)
        event = MemoSystem(pipeline_schedule="auto", pipeline_engine="event").run(workload)
        assert fast.parallel == event.parallel
        assert fast.iteration_time_s == event.iteration_time_s
        assert fast.mfu == event.mfu

    def test_validate_pipeline_oracle_passes_end_to_end(self):
        workload = Workload("7B", tokens(64), 8, global_batch_samples=16)
        report = MemoSystem(pipeline_schedule="auto", validate_pipeline=True).run(workload)
        assert report.feasible

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="pipeline_engine"):
            MemoSystem(pipeline_engine="warp")


class TestEngineRecordFlag:
    @staticmethod
    def _drive(engine: SimulationEngine):
        order = []
        engine.schedule(2.0, "b", lambda e: order.append(("b", e.now)))
        engine.schedule(1.0, "a", lambda e: order.append(("a", e.now)))
        engine.schedule(3.0, "c", lambda e: order.append(("c", e.now)))
        pending_before = engine.pending
        engine.run(until=2.5)
        mid = (engine.now, engine.pending)
        engine.run()
        return pending_before, mid, engine.now, order

    def test_pending_and_now_identical_with_and_without_recording(self):
        recorded = SimulationEngine(record=True)
        bare = SimulationEngine(record=False)
        assert self._drive(recorded) == self._drive(bare)
        assert len(recorded.processed) == 3
        assert bare.processed == []

    def test_pipeline_simulation_does_not_retain_events(self):
        schedule = build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8)
        engine = SimulationEngine(record=False)
        timeline = simulate_pipeline(schedule, COSTS, engine=engine)
        assert timeline.total_s > 0
        assert engine.processed == []
        assert engine.pending == 0


class TestDegenerateWarningDedup:
    def test_warns_once_per_search_not_once_per_candidate(self):
        # The pinned-parallelism path rebuilds each candidate config via
        # with_updates, which used to re-emit one DegenerateScheduleWarning
        # per (recompute, offload) variant of the degenerate PP point.
        workload = Workload("7B", tokens(64), 32)
        system = MemoSystem(
            pipeline_schedule="auto",
            fixed_parallel=ParallelismConfig(
                tensor_parallel=1, pipeline_parallel=4, data_parallel=8,
                micro_batches=16,
            ),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            system.run(workload)
        degenerate = [
            entry for entry in caught
            if issubclass(entry.category, DegenerateScheduleWarning)
        ]
        assert len(degenerate) == 1

    def test_config_construction_still_warns_directly(self):
        with pytest.warns(DegenerateScheduleWarning):
            ParallelismConfig(pipeline_parallel=4, micro_batches=2)


class TestCliEngineFlag:
    BASE = ["sim-pipeline", "--model", "7B", "--gpus", "8", "--seqlen-k", "64",
            "--pp", "4", "--tp", "2", "--micro-batches", "8", "--schedule", "1f1b"]

    def test_fast_and_event_engines_print_identical_tables(self, capsys):
        assert main(self.BASE + ["--engine", "fast"]) == 0
        fast_out = capsys.readouterr().out
        assert main(self.BASE + ["--engine", "event"]) == 0
        event_out = capsys.readouterr().out
        assert fast_out == event_out

    def test_validate_flag_runs_clean(self, capsys):
        assert main(self.BASE + ["--validate"]) == 0
        assert "1f1b" in capsys.readouterr().out


class TestScheduleProgramCache:
    """PR 9: the compiled batch program rides the same structure key and
    generation discipline as the schedule cache."""

    def setup_method(self):
        clear_fastpath_caches()

    def test_compile_returns_shared_program(self):
        schedule = cached_build_schedule(ScheduleKind.ZB_H1, 3, 6, 1)
        first = compile_schedule_program(schedule)
        second = compile_schedule_program(schedule)
        assert first is second
        info = fastpath_cache_info()
        assert info["programs"].misses == 1
        assert info["programs"].hits == 1

    def test_clear_retires_the_program_generation(self):
        """Mirrors the PR 6 generation-retirement tests: a schedule surviving
        a cache clear keeps its canonical marker but must bypass the program
        cache -- its stamp belongs to a dead generation."""
        stale = cached_build_schedule(ScheduleKind.ZB_V, 4, 8, 2)
        compile_schedule_program(stale)
        clear_fastpath_caches()
        bypass = compile_schedule_program(stale)
        info = fastpath_cache_info()
        # The stale compile must not touch the refilled cache at all.
        assert info["programs"].hits == 0
        assert info["programs"].misses == 0
        fresh = cached_build_schedule(ScheduleKind.ZB_V, 4, 8, 2)
        cached = compile_schedule_program(fresh)
        assert cached is not bypass
        assert cached.instructions == bypass.instructions

    def test_hand_built_schedule_never_hits_the_program_cache(self):
        hand_built = build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8)
        assert not getattr(hand_built, "_canonical", False)
        program = compile_schedule_program(hand_built)
        info = fastpath_cache_info()
        assert info["programs"].hits == 0
        assert info["programs"].misses == 0
        batch = critical_path_timeline_batch(program, [(COSTS,) * 4])
        assert batch.total_s[0] == critical_path_timeline(hand_built, COSTS).total_s

    def test_clear_fastpath_caches_drops_programs(self):
        compile_schedule_program(cached_build_schedule(ScheduleKind.GPIPE, 2, 4, 1))
        assert fastpath_cache_info()["programs"].currsize == 1
        clear_fastpath_caches()
        assert fastpath_cache_info()["programs"].currsize == 0


class TestTimelineCacheReusePin:
    """Satellite (PR 9): why the timeline cache's hit rate is structurally low.

    ``BENCH_search.json`` shows the schedule cache reusing 216 times while
    timelines manage 23 hits / 31 misses.  Instrumenting the reference search
    shows why, and these tests pin it: the timeline key must include the full
    per-stage cost vector (the makespan depends on every float in it), and
    distinct strategies sharing a schedule *structure* virtually never
    produce byte-identical cost vectors -- each embeds its own TP/CP/offload
    dependent durations.  Timeline hits only come from cost-equivalent
    strategy aliases (e.g. candidates whose knob change does not move the
    stage costs) and exact re-evaluations.  The structural reuse the
    timeline cache cannot express is exactly what the program cache
    captures: one compile per structure, one cheap execute per cost vector.
    """

    def setup_method(self):
        clear_fastpath_caches()

    def test_same_structure_different_costs_cannot_share_a_timeline(self):
        schedule = cached_build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8, 1)
        other_costs = StageCosts(forward_s=1.0, backward_s=2.0 + 1e-12)
        evaluate_schedule(schedule, COSTS)
        evaluate_schedule(schedule, other_costs)
        info = fastpath_cache_info()
        # Two distinct cost vectors are two timeline entries -- even a 1 ulp
        # cost change must miss, the makespan is a function of the costs.
        assert info["timelines"].misses == 2
        assert info["timelines"].hits == 0
        # ... while the structure-keyed program cache shares one compile:
        # both evaluations and both explicit compiles read the same entry.
        compile_schedule_program(schedule)
        compile_schedule_program(schedule)
        assert fastpath_cache_info()["programs"].misses == 1
        assert fastpath_cache_info()["programs"].hits == 3

    def test_identical_costs_do_share_a_timeline(self):
        schedule = cached_build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8, 1)
        first = evaluate_schedule(schedule, COSTS)
        # A cost-equivalent alias: a fresh but equal cost object must hit.
        second = evaluate_schedule(
            schedule, StageCosts(forward_s=1.0, backward_s=2.0),
        )
        assert first is second
        assert fastpath_cache_info()["timelines"].hits == 1


def _batch_timeline(schedule, costs, **kwargs):
    program = compile_schedule_program(schedule)
    return critical_path_timeline_batch(
        program, [[costs] * schedule.num_virtual_stages], **kwargs,
    )


class TestTransferParameterChecks:
    """Every evaluator rejects NaN transfer parameters instead of returning a
    NaN (event engine) or silently ignoring them (fast path)."""

    @pytest.mark.parametrize(
        "evaluate", [simulate_pipeline, critical_path_timeline, _batch_timeline],
        ids=["event", "scalar", "batch"],
    )
    @pytest.mark.parametrize("parameter", [
        "p2p_bandwidth_bytes_per_s", "p2p_latency_s", "pcie_bandwidth_bytes_per_s",
    ])
    def test_nan_transfer_parameter_is_rejected(self, evaluate, parameter):
        schedule = build_schedule(ScheduleKind.ONE_F_ONE_B, 4, 8)
        costs = StageCosts(forward_s=1.0, backward_s=2.0, p2p_bytes=5.0)
        with pytest.raises(ValueError, match=parameter):
            evaluate(schedule, costs, **{parameter: math.nan})


class TestRecordOpsOnHandBuiltSchedule:
    def test_records_match_the_event_engine_op_for_op(self):
        """A non-canonical split-backward order with offload, prefetch and
        cross-rank hops: every rank's records equal the event engine's, in
        order, and the uncached compile leaves the program cache untouched."""
        clear_fastpath_caches()
        p, m = 3, 4

        def rank_ops(rank):
            forwards = [StageOp(OpKind.FORWARD, rank, 0, mb, rank) for mb in range(m)]
            tail = []
            for mb in reversed(range(m)):
                tail.append(StageOp(OpKind.BACKWARD_INPUT, rank, 0, mb, rank))
                if mb % 2 == 0:
                    tail.append(StageOp(OpKind.BACKWARD_WEIGHT, rank, 0, mb + 1, rank))
                    tail.append(StageOp(OpKind.BACKWARD_WEIGHT, rank, 0, mb, rank))
            return tuple(forwards + tail)

        schedule = PipelineSchedule(
            kind=ScheduleKind.ZB_H1, num_stages=p, num_micro_batches=m,
            num_chunks=1, rank_ops=tuple(rank_ops(rank) for rank in range(p)),
        )
        assert schedule.rank_ops != build_schedule(ScheduleKind.ZB_H1, p, m).rank_ops
        costs = [
            StageCosts(
                forward_s=1.0 + 0.25 * stage, backward_s=2.5 - 0.5 * stage,
                p2p_bytes=4e6 * (stage + 1), offload_bytes=3e9, prefetch_bytes=5e9,
                recompute_s=0.125,
            )
            for stage in range(p)
        ]
        kwargs = dict(
            p2p_bandwidth_bytes_per_s=1e9, p2p_latency_s=1e-3,
            pcie_bandwidth_bytes_per_s=2e9,
        )
        fast = critical_path_timeline(schedule, costs, record_ops=True, **kwargs)
        oracle = simulate_pipeline(schedule, costs, **kwargs)
        assert fast.total_s == oracle.total_s
        assert len(fast.records) == len(oracle.records) == p * 3 * m
        for rank in range(p):
            fast_rank = [record for record in fast.records if record.op.rank == rank]
            oracle_rank = [record for record in oracle.records if record.op.rank == rank]
            assert fast_rank == oracle_rank
        info = fastpath_cache_info()["programs"]
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
