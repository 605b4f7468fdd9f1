"""Tests of the failure-process simulation layer (``repro.sim.failures``).

The layer's contracts mirror the stochastic layer's and are enforced
exactly, not approximately:

* **seeded determinism** -- the same ``(spec, seed, replica)`` reproduces a
  failure trace and a time-to-train distribution bit for bit, including in a
  fresh interpreter;
* **null-process collapse** -- :data:`NULL_FAILURES` draws no variate and
  every sample equals ``target_iterations * iteration_time`` exactly, so a
  training system with ``failures="0"`` reports field-for-field the same
  numbers as the deterministic one;
* **sample floor** -- failures and checkpoints only add: every sample sits
  at or above the ideal time, which keeps every analytic pruning floor a
  valid lower bound under the ``ttrain_*`` objectives;
* **argmax invariance** -- bound pruning and sequential stopping never
  change the schedule a search selects on an exhaustive lattice;
* **Young/Daly** -- the closed-form checkpoint interval is (near) optimal
  against the simulated walk on an interval grid;
* **shared draws change nothing** -- walks reading memoized arrival
  streams and fast-forwarding checkpoint segments reproduce a frozen copy
  of the per-walk, segment-by-segment walk sample for sample.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.config import tokens
from repro.parallel.search import SearchStats
from repro.parallel.strategy import ParallelismConfig
from repro.sim.failures import (
    DEFAULT_RECOVERY,
    MAX_SLOWDOWN,
    NULL_FAILURES,
    TTRAIN_OBJECTIVES,
    FailureEvent,
    FailureSpec,
    RecoveryModel,
    TimeToTrainDistribution,
    _SHARED_EVENTS,
    _LazyTrace,
    _arrival_stream,
    clear_failure_arrival_memo,
    draw_failure_trace,
    optimal_checkpoint_interval,
    parse_failure_spec,
    parse_recovery_spec,
    simulate_time_to_train,
    ttrain_objective_base,
)
from repro.sim.fastpath import (
    clear_fastpath_caches,
    fastpath_cache_info,
    snapshot_fastpath_caches,
)
from repro.sim.stochastic import (
    MIN_SEQUENTIAL_REPLICAS,
    JitterSpec,
    distribution_ci_halfwidth,
)
from repro.systems.base import Workload
from repro.systems.megatron import MegatronSystem
from repro.systems.memo import MemoSystem

from schedule_sweep import sweep_schedules

SPEC = FailureSpec(mtbf_s=5000.0, correlated_prob=0.3, preempt_every_s=20000.0,
                   preempt_notice_s=60.0)
RECOVERY = RecoveryModel(checkpoint_write_s=20.0, restart_overhead_s=100.0)


class TestFailureSpec:
    def test_null_spec(self):
        assert NULL_FAILURES.is_null
        assert FailureSpec(mtbf_s=1000.0).is_null is False
        assert FailureSpec(preempt_every_s=1000.0).is_null is False
        # Correlation alone activates nothing: there are no arrivals to
        # escalate.
        assert FailureSpec(correlated_prob=0.5).is_null

    @pytest.mark.parametrize("kwargs", [
        {"mtbf_s": 0.0},
        {"mtbf_s": -1.0},
        {"mtbf_s": float("nan")},
        {"process": "uniform"},
        {"weibull_shape": 0.0},
        {"weibull_shape": float("inf")},
        {"correlated_prob": -0.1},
        {"correlated_prob": 1.5},
        {"correlated_prob": float("nan")},
        {"gpus_per_node": 0},
        {"preempt_every_s": 0.0},
        {"preempt_every_s": float("nan")},
        {"preempt_notice_s": -1.0},
        {"preempt_notice_s": float("inf")},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            FailureSpec(**kwargs)

    def test_parse_grammar(self):
        assert parse_failure_spec("0") == NULL_FAILURES
        assert parse_failure_spec("mtbf=43200") == FailureSpec(mtbf_s=43200.0)
        assert parse_failure_spec("mtbf=43200,process=weibull") == FailureSpec(
            mtbf_s=43200.0, process="weibull",
        )
        assert parse_failure_spec("mtbf=43200,process=weibull:0.5") == FailureSpec(
            mtbf_s=43200.0, process="weibull", weibull_shape=0.5,
        )
        assert parse_failure_spec("mtbf=1000,correlated=0.3:8") == FailureSpec(
            mtbf_s=1000.0, correlated_prob=0.3, gpus_per_node=8,
        )
        assert parse_failure_spec("preempt=3600:120") == FailureSpec(
            preempt_every_s=3600.0, preempt_notice_s=120.0,
        )

    @pytest.mark.parametrize("text", [
        "", "bogus=1", "mtbf", "mtbf=x", "process=weibull:x", "mtbf=1000;x=2",
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_failure_spec(text)

    def test_describe_roundtrips(self):
        for spec in (NULL_FAILURES, SPEC, FailureSpec(mtbf_s=1000.0),
                     FailureSpec(mtbf_s=1e4, process="weibull", weibull_shape=0.5),
                     FailureSpec(mtbf_s=1e4, correlated_prob=0.2, gpus_per_node=4),
                     FailureSpec(preempt_every_s=3600.0, preempt_notice_s=30.0)):
            assert parse_failure_spec(spec.describe()) == spec

    def test_system_mtbf_combines_rates(self):
        spec = FailureSpec(mtbf_s=8000.0)
        assert spec.system_mtbf_s(1) == 8000.0
        assert spec.system_mtbf_s(8) == pytest.approx(1000.0)
        both = FailureSpec(mtbf_s=8000.0, preempt_every_s=2000.0)
        assert both.system_mtbf_s(8) == pytest.approx(1.0 / (8 / 8000.0 + 1 / 2000.0))
        assert NULL_FAILURES.system_mtbf_s(64) == math.inf
        with pytest.raises(ValueError):
            spec.system_mtbf_s(0)


class TestFailureTrace:
    def test_null_spec_draws_nothing(self):
        assert draw_failure_trace(NULL_FAILURES, 8, 1e9, seed=0) == ()

    def test_deterministic_and_time_ordered(self):
        first = draw_failure_trace(SPEC, 8, 50000.0, seed=3, replica=1)
        second = draw_failure_trace(SPEC, 8, 50000.0, seed=3, replica=1)
        assert first == second
        times = [event.time_s for event in first]
        assert times == sorted(times)
        assert any(event.kind == "failure" for event in first)
        assert any(event.kind == "preemption" for event in first)

    def test_different_seeds_and_replicas_differ(self):
        base = draw_failure_trace(SPEC, 8, 50000.0, seed=0, replica=0)
        assert draw_failure_trace(SPEC, 8, 50000.0, seed=1, replica=0) != base
        assert draw_failure_trace(SPEC, 8, 50000.0, seed=0, replica=1) != base

    def test_rank_streams_independent_of_rank_count(self):
        """Rank r's arrivals do not depend on how many other ranks exist."""
        spec = FailureSpec(mtbf_s=2000.0)
        small = draw_failure_trace(spec, 2, 20000.0, seed=7)
        large = draw_failure_trace(spec, 6, 20000.0, seed=7)
        small_times = {event.time_s for event in small}
        large_rank01 = {event.time_s for event in large
                        if all(rank < 2 for rank in event.ranks)}
        assert small_times == large_rank01

    def test_correlated_failures_take_the_whole_node(self):
        spec = FailureSpec(mtbf_s=2000.0, correlated_prob=1.0)
        trace = draw_failure_trace(spec, 8, 20000.0, seed=0, gpus_per_node=4)
        assert trace
        for event in trace:
            assert event.ranks in ((0, 1, 2, 3), (4, 5, 6, 7))

    def test_node_tail_is_clamped_to_rank_count(self):
        spec = FailureSpec(mtbf_s=2000.0, correlated_prob=1.0)
        trace = draw_failure_trace(spec, 6, 20000.0, seed=0, gpus_per_node=4)
        for event in trace:
            assert event.ranks in ((0, 1, 2, 3), (4, 5))

    def test_preemption_grid(self):
        spec = FailureSpec(preempt_every_s=100.0, preempt_notice_s=5.0)
        trace = draw_failure_trace(spec, 4, 350.0, seed=0)
        assert [event.time_s for event in trace] == [100.0, 200.0, 300.0]
        for event in trace:
            assert event.kind == "preemption"
            assert event.ranks == (0, 1, 2, 3)
            assert event.notice_s == 5.0

    def test_weibull_mean_matches_mtbf(self):
        """The Weibull scale keeps the mean inter-arrival at mtbf for every
        shape (law of large numbers over one long stream)."""
        spec = FailureSpec(mtbf_s=100.0, process="weibull", weibull_shape=0.7)
        trace = draw_failure_trace(spec, 1, 2e5, seed=0)
        assert len(trace) == pytest.approx(2e5 / 100.0, rel=0.15)

    def test_bit_identical_across_processes(self):
        local = draw_failure_trace(SPEC, 4, 30000.0, seed=11, replica=2)
        script = (
            "import json\n"
            "from repro.sim.failures import FailureSpec, draw_failure_trace\n"
            "spec = FailureSpec(mtbf_s=5000.0, correlated_prob=0.3,"
            " preempt_every_s=20000.0, preempt_notice_s=60.0)\n"
            "trace = draw_failure_trace(spec, 4, 30000.0, seed=11, replica=2)\n"
            "print(json.dumps([[e.time_s.hex(), list(e.ranks), e.kind]"
            " for e in trace]))\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, check=True,
        )
        remote = [(float.fromhex(time_hex), tuple(ranks), kind)
                  for time_hex, ranks, kind in json.loads(result.stdout)]
        assert remote == [(e.time_s, e.ranks, e.kind) for e in local]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            draw_failure_trace(SPEC, 0, 1000.0)
        with pytest.raises(ValueError):
            draw_failure_trace(SPEC, 4, -1.0)


class TestRecoveryModel:
    @pytest.mark.parametrize("kwargs", [
        {"checkpoint_write_s": -1.0},
        {"checkpoint_write_s": float("inf")},
        {"restart_overhead_s": -1.0},
        {"restart_overhead_s": float("nan")},
        {"checkpoint_interval_s": 0.0},
        {"min_rank_fraction": 0.0},
        {"min_rank_fraction": 1.5},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            RecoveryModel(**kwargs)

    def test_from_model_bytes(self):
        model = RecoveryModel.from_model_bytes(300e9, write_bandwidth_bytes_per_s=10e9)
        assert model.checkpoint_write_s == pytest.approx(30.0)
        with pytest.raises(ValueError):
            RecoveryModel.from_model_bytes(-1.0)
        with pytest.raises(ValueError):
            RecoveryModel.from_model_bytes(1e9, write_bandwidth_bytes_per_s=0.0)

    def test_parse_grammar_and_describe_roundtrip(self):
        model = parse_recovery_spec("write=40,restart=300,interval=1800,elastic")
        assert model == RecoveryModel(
            checkpoint_write_s=40.0, restart_overhead_s=300.0,
            checkpoint_interval_s=1800.0, elastic=True,
        )
        for spec in (DEFAULT_RECOVERY, model,
                     RecoveryModel(checkpoint_write_s=5.0, elastic=True)):
            assert parse_recovery_spec(spec.describe()) == spec
        with pytest.raises(ValueError):
            parse_recovery_spec("")
        with pytest.raises(ValueError):
            parse_recovery_spec("bogus=1")
        with pytest.raises(ValueError):
            parse_recovery_spec("write")

    def test_interval_for_prefers_explicit_interval(self):
        fixed = RecoveryModel(checkpoint_interval_s=777.0)
        assert fixed.interval_for(SPEC, 32) == 777.0
        auto = RecoveryModel(checkpoint_write_s=30.0)
        assert auto.interval_for(SPEC, 32) == optimal_checkpoint_interval(
            30.0, SPEC.system_mtbf_s(32),
        )


class TestYoungDaly:
    def test_closed_form(self):
        assert optimal_checkpoint_interval(30.0, math.inf) == math.inf
        assert optimal_checkpoint_interval(0.0, 1000.0) == 0.0
        assert optimal_checkpoint_interval(30.0, 43200.0) == pytest.approx(
            math.sqrt(2.0 * 30.0 * 43200.0),
        )
        # Floor: never checkpoint more often than the write itself costs.
        assert optimal_checkpoint_interval(1000.0, 10.0) == 1000.0
        with pytest.raises(ValueError):
            optimal_checkpoint_interval(-1.0, 1000.0)
        with pytest.raises(ValueError):
            optimal_checkpoint_interval(1.0, 0.0)

    def test_simulation_agrees_on_an_interval_grid(self):
        """The Young/Daly interval is within a few percent of the best fixed
        interval on a grid spanning 1/4x .. 4x of it -- the closed form and
        the walk describe the same process."""
        spec = FailureSpec(mtbf_s=3000.0)
        num_ranks = 4
        write = 15.0
        tau = optimal_checkpoint_interval(write, spec.system_mtbf_s(num_ranks))
        means = {}
        for scale in (0.25, 0.5, 1.0, 2.0, 4.0):
            recovery = RecoveryModel(
                checkpoint_write_s=write, restart_overhead_s=60.0,
                checkpoint_interval_s=tau * scale,
            )
            dist = simulate_time_to_train(
                2.0, 2000, spec, recovery, num_ranks=num_ranks,
                replicas=64, seed=0,
            )
            means[scale] = dist.mean_s
        assert means[1.0] <= 1.05 * min(means.values())
        # The grid must separate: the extremes are measurably worse.
        assert max(means.values()) > 1.02 * means[1.0]


class TestTimeToTrain:
    def test_null_process_collapses_exactly(self):
        dist = simulate_time_to_train(1.5, 100, NULL_FAILURES, RECOVERY,
                                      num_ranks=8, replicas=16, seed=9)
        assert dist.samples == (150.0,) * 16
        assert dist.failure_counts == (0,) * 16
        assert dist.mean_s == 150.0 == dist.p99_s == dist.cvar95_s
        assert dist.expected_slowdown == 1.0
        for objective in TTRAIN_OBJECTIVES:
            assert dist.score(objective) == 1.5

    def test_every_sample_at_or_above_ideal(self):
        """Failures and checkpoints only add -- the floor that keeps pruning
        valid under every ttrain_* objective."""
        for spec in (SPEC,
                     FailureSpec(mtbf_s=800.0),
                     FailureSpec(mtbf_s=2000.0, process="weibull"),
                     FailureSpec(preempt_every_s=150.0, preempt_notice_s=5.0)):
            dist = simulate_time_to_train(2.0, 200, spec, RECOVERY,
                                          num_ranks=4, replicas=16, seed=1)
            assert dist.ideal_s == 400.0
            for sample in dist.samples:
                assert sample >= dist.ideal_s
            assert any(count > 0 for count in dist.failure_counts)
            for objective in TTRAIN_OBJECTIVES:
                assert dist.score(objective) >= 2.0

    def test_seeded_determinism(self):
        first = simulate_time_to_train(2.0, 200, SPEC, RECOVERY,
                                       num_ranks=4, replicas=8, seed=5)
        second = simulate_time_to_train(2.0, 200, SPEC, RECOVERY,
                                        num_ranks=4, replicas=8, seed=5)
        assert first == second
        other = simulate_time_to_train(2.0, 200, SPEC, RECOVERY,
                                       num_ranks=4, replicas=8, seed=6)
        assert first.samples != other.samples

    def test_per_replica_iteration_times(self):
        """A sequence composes with the jitter layer: replica r walks with
        iteration_time[r % len], exactly -- visible under the null process."""
        dist = simulate_time_to_train((1.0, 2.0, 3.0), 10, NULL_FAILURES,
                                      RECOVERY, replicas=6)
        assert dist.samples == (10.0, 20.0, 30.0, 10.0, 20.0, 30.0)

    def test_ideal_is_a_floor_for_varying_per_replica_times(self):
        """A jitter-composed per-replica sequence anchors the ideal at its
        *fastest* iteration time, so the floor holds for every sample
        (regression: replica 0's possibly slower time used to set it,
        letting faster replicas undercut it and expected_slowdown drop
        below 1)."""
        dist = simulate_time_to_train((3.0, 1.0), 10, NULL_FAILURES, RECOVERY,
                                      replicas=4)
        assert dist.ideal_s == 10.0
        assert dist.samples == (30.0, 10.0, 30.0, 10.0)
        assert dist.expected_slowdown >= 1.0
        noisy = simulate_time_to_train((3.0, 1.0, 2.0), 50, SPEC, RECOVERY,
                                       num_ranks=4, replicas=9, seed=4)
        assert noisy.ideal_s == 50.0
        for sample in noisy.samples:
            assert sample >= noisy.ideal_s
        assert noisy.expected_slowdown >= 1.0

    def test_pathological_config_hits_the_cap(self):
        """MTBF far below the restart cycle: the walk reports the capped
        sample instead of spinning forever."""
        spec = FailureSpec(mtbf_s=1.0)
        recovery = RecoveryModel(checkpoint_write_s=10.0, restart_overhead_s=1e5)
        dist = simulate_time_to_train(1.0, 10, spec, recovery,
                                      num_ranks=8, replicas=2, seed=0)
        assert dist.samples == (10.0 * MAX_SLOWDOWN,) * 2

    def test_free_checkpoint_write_terminates_and_loses_no_work(self):
        """A free write (``--recovery write=0`` on the CLI) puts the
        Young/Daly interval at 0 -- the continuous-checkpointing limit.
        The walk must terminate (regression: zero-length segments once
        looped forever, the cap bounds clock, not iterations) and a failure
        must cost exactly the restart overhead, never lost work."""
        spec = FailureSpec(mtbf_s=1000.0)
        recovery = parse_recovery_spec("write=0,restart=100")
        dist = simulate_time_to_train(1.0, 500, spec, recovery,
                                      num_ranks=4, replicas=8, seed=3)
        assert dist.checkpoint_interval_s == 0.0
        assert any(count > 0 for count in dist.failure_counts)
        for sample, count in zip(dist.samples, dist.failure_counts):
            assert sample == pytest.approx(dist.ideal_s + count * 100.0)

    def test_long_notice_preemption_is_cheaper_than_no_notice(self):
        """A notice window >= the write cost makes progress durable at the
        preemption instant; with zero notice the same instants lose work.
        Same arrival grid, pointwise comparison per replica."""
        base = dict(preempt_every_s=300.0)
        kind = simulate_time_to_train(
            2.0, 600, FailureSpec(preempt_notice_s=60.0, **base),
            RecoveryModel(checkpoint_write_s=20.0, restart_overhead_s=50.0,
                          checkpoint_interval_s=1e9),
            replicas=4, seed=0,
        )
        harsh = simulate_time_to_train(
            2.0, 600, FailureSpec(preempt_notice_s=0.0, **base),
            RecoveryModel(checkpoint_write_s=20.0, restart_overhead_s=50.0,
                          checkpoint_interval_s=1e9),
            replicas=4, seed=0,
        )
        assert all(a < b for a, b in zip(kind.samples, harsh.samples))

    def test_elastic_continuation_beats_full_restart_under_attrition(self):
        """With frequent failures and a huge restart overhead dwarfing the
        degraded-throughput cost, the elastic model must finish faster."""
        spec = FailureSpec(mtbf_s=4000.0)
        base = dict(checkpoint_write_s=10.0, restart_overhead_s=2000.0)
        elastic = simulate_time_to_train(
            2.0, 400, spec, RecoveryModel(elastic=True, **base),
            num_ranks=8, replicas=16, seed=2,
        )
        rigid = simulate_time_to_train(
            2.0, 400, spec, RecoveryModel(elastic=False, **base),
            num_ranks=8, replicas=16, seed=2,
        )
        assert elastic.mean_s < rigid.mean_s

    def test_elastic_ignores_repeat_failures_of_dead_ranks(self, monkeypatch):
        """During elastic continuation an already-dead rank keeps emitting
        arrivals (its stream is lazy); those must not shrink the job again.
        Scripted trace: a pair dies, an overlapping pair removes only its
        one new rank, and a fully-dead repeat is ignored outright."""
        import repro.sim.failures as failures_mod

        scripted = [
            FailureEvent(10.0, (0, 1), "failure", 0.0),
            FailureEvent(20.0, (1, 2), "failure", 0.0),
            FailureEvent(30.0, (0,), "failure", 0.0),
        ]

        class _ScriptedTrace:
            def __init__(self, *args, **kwargs):
                self._events = list(scripted)

            def next_event(self):
                if self._events:
                    return self._events.pop(0)
                return FailureEvent(math.inf, (0,), "failure", 0.0)

        monkeypatch.setattr(failures_mod, "_LazyTrace", _ScriptedTrace)
        recovery = RecoveryModel(checkpoint_write_s=5.0, restart_overhead_s=100.0,
                                 checkpoint_interval_s=1e9, elastic=True,
                                 min_rank_fraction=0.25)
        dist = failures_mod.simulate_time_to_train(
            1.0, 100, FailureSpec(mtbf_s=1e12), recovery,
            num_ranks=8, replicas=1, seed=0,
        )
        # 0..10 at 8 ranks (work lost), 10..20 at 6 ranks (work lost), then
        # 100 units of work at 5 survivors: 20 + 100 * 8/5.  The third event
        # removes nobody and is not even counted as an interruption.
        assert dist.failure_counts == (2,)
        assert dist.samples[0] == pytest.approx(20.0 + 100.0 * 8.0 / 5.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            simulate_time_to_train(1.0, 0, SPEC)
        with pytest.raises(ValueError):
            simulate_time_to_train(1.0, 10, SPEC, replicas=0)
        with pytest.raises(ValueError):
            simulate_time_to_train(1.0, 10, SPEC, num_ranks=0)
        with pytest.raises(ValueError):
            simulate_time_to_train((), 10, SPEC)
        with pytest.raises(ValueError):
            simulate_time_to_train(0.0, 10, SPEC)
        with pytest.raises(ValueError):
            simulate_time_to_train(float("inf"), 10, SPEC)
        with pytest.raises(ValueError):
            simulate_time_to_train(1.0, 10, SPEC, ci_halfwidth=-0.5)
        with pytest.raises(ValueError):
            simulate_time_to_train(1.0, 10, SPEC, min_replicas=1)
        with pytest.raises(ValueError):
            TimeToTrainDistribution(
                samples=(), failure_counts=(), ideal_s=1.0, target_iterations=1,
                checkpoint_interval_s=1.0, seed=0, spec=SPEC, recovery=RECOVERY,
            )

    def test_bit_identical_across_processes(self):
        local = simulate_time_to_train(2.0, 200, SPEC, RECOVERY,
                                       num_ranks=4, replicas=6, seed=21)
        script = (
            "import json\n"
            "from repro.sim.failures import (FailureSpec, RecoveryModel,"
            " simulate_time_to_train)\n"
            "spec = FailureSpec(mtbf_s=5000.0, correlated_prob=0.3,"
            " preempt_every_s=20000.0, preempt_notice_s=60.0)\n"
            "recovery = RecoveryModel(checkpoint_write_s=20.0,"
            " restart_overhead_s=100.0)\n"
            "dist = simulate_time_to_train(2.0, 200, spec, recovery,"
            " num_ranks=4, replicas=6, seed=21)\n"
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


class TestSequentialStopping:
    def test_adaptive_samples_are_a_prefix_of_the_fixed_run(self):
        """Replica r's arrival streams do not depend on the replication
        count, so stopping early yields exactly a prefix."""
        fixed = simulate_time_to_train(2.0, 200, SPEC, RECOVERY,
                                       num_ranks=4, replicas=64, seed=0)
        adaptive = simulate_time_to_train(2.0, 200, SPEC, RECOVERY,
                                          num_ranks=4, replicas=64, seed=0,
                                          ci_halfwidth=0.5)
        assert adaptive.replicas < fixed.replicas
        assert adaptive.samples == fixed.samples[:adaptive.replicas]

    def test_loose_bound_stops_at_min_replicas(self):
        dist = simulate_time_to_train(2.0, 200, SPEC, RECOVERY,
                                      num_ranks=4, replicas=64, seed=0,
                                      ci_halfwidth=1e9, min_replicas=8)
        assert dist.replicas == 8

    def test_tight_bound_runs_to_the_cap(self):
        dist = simulate_time_to_train(2.0, 200, SPEC, RECOVERY,
                                      num_ranks=4, replicas=12, seed=0,
                                      ci_halfwidth=0.0)
        assert dist.replicas == 12

    def test_null_process_stops_at_min_replicas(self):
        """Zero-variance samples estimate any statistic exactly, so the
        sequential test fires as soon as it may."""
        dist = simulate_time_to_train(2.0, 100, NULL_FAILURES, RECOVERY,
                                      replicas=64, ci_halfwidth=0.01,
                                      min_replicas=8)
        assert dist.replicas == 8
        assert dist.samples == (200.0,) * 8


class TestTtrainArgmaxInvariance:
    """The failure layer composes with the search exactly like the jitter
    layer: every time-to-train sample >= the ideal >= the deterministic
    makespan floor, so bound pruning -- and variance-aware sequential
    stopping -- never change the selected schedule."""

    FAILURES = FailureSpec(mtbf_s=40000.0, correlated_prob=0.2)
    JITTER = JitterSpec(compute_sigma=0.08, straggler_prob=0.15, straggler_alpha=3.0)
    RECOVERY = RecoveryModel(checkpoint_write_s=10.0, restart_overhead_s=120.0)

    @staticmethod
    def _lattice():
        return [
            (p, m, forward, backward, share)
            for p in (2, 3, 4)
            for m in (2, 4, 8)
            for forward, backward in ((1.0, 2.0), (0.5, 3.0), (2.0, 1.0))
            for share in (None, 0.4)
        ]

    def test_pruning_never_changes_argmax_on_the_lattice(self):
        pruned_away = 0
        for p, m, forward, backward, share in self._lattice():
            parallel = ParallelismConfig(pipeline_parallel=p, micro_batches=max(m, p))
            kwargs = dict(
                num_micro_batches=m, backward_weight_fraction=share,
                objective="ttrain_p99", jitter=self.JITTER, replicas=8, seed=5,
                failures=self.FAILURES, recovery=self.RECOVERY,
                target_iterations=50,
            )
            stats = SearchStats()
            pruned = sweep_schedules(
                parallel, forward, backward, prune=True, stats=stats, **kwargs,
            )
            unpruned = sweep_schedules(
                parallel, forward, backward, prune=False, **kwargs,
            )
            assert pruned[0] is unpruned[0], (p, m, forward, backward, share)
            assert pruned[1].total_s == unpruned[1].total_s
            pruned_away += stats.schedules_pruned
        assert pruned_away > 0

    def test_sequential_stopping_never_changes_the_selection(self):
        """Variance-aware budgeting (the ci_halfwidth knob) picks the same
        schedule as the fixed-replica run on the whole lattice -- the
        adaptive samples are a prefix, and the bound (0.01 per-iteration
        seconds) sits below half the score gap of every candidate pair, the
        condition under which sequential stopping cannot flip an argmax."""
        for p, m, forward, backward, share in self._lattice():
            parallel = ParallelismConfig(pipeline_parallel=p, micro_batches=max(m, p))
            kwargs = dict(
                num_micro_batches=m, backward_weight_fraction=share,
                objective="ttrain_p99", jitter=self.JITTER, replicas=24, seed=5,
                failures=self.FAILURES, recovery=self.RECOVERY,
                target_iterations=50,
            )
            fixed = sweep_schedules(parallel, forward, backward, **kwargs)
            adaptive = sweep_schedules(
                parallel, forward, backward, ci_halfwidth=0.01, **kwargs,
            )
            assert adaptive[0] is fixed[0], (p, m, forward, backward, share)

    def test_ttrain_objective_requires_known_name(self):
        with pytest.raises(ValueError):
            MegatronSystem(risk_objective="ttrain_p42", failures=self.FAILURES)
        with pytest.raises(ValueError):
            ttrain_objective_base("p99")


class TestSystemNullFailureIdentity:
    def test_null_failure_spec_report_is_bit_identical(self):
        """The failure layer present-but-disabled changes nothing: the whole
        TrainingReport matches the deterministic system's field for field,
        and no time-to-train distribution is attached."""
        workload = Workload("7B", tokens(64), 16, global_batch_samples=64)
        deterministic = MemoSystem(pipeline_schedule="auto").run(workload)
        disabled = MemoSystem(
            pipeline_schedule="auto", failures="0",
            recovery="write=30,restart=120", risk_objective="ttrain_p99",
        ).run(workload)
        assert disabled.parallel == deterministic.parallel
        assert disabled.iteration_time_s == deterministic.iteration_time_s
        assert disabled.mfu == deterministic.mfu
        assert disabled.tgs == deterministic.tgs
        assert disabled.notes == deterministic.notes
        assert disabled.time_to_train is None
        assert disabled.makespan_distribution is None

    def test_active_failures_attach_a_distribution_and_slow_the_iteration(self):
        workload = Workload("7B", tokens(64), 16, global_batch_samples=64)
        base = MemoSystem(pipeline_schedule="auto").run(workload)
        report = MemoSystem(
            pipeline_schedule="auto", failures="mtbf=43200,correlated=0.3",
            recovery="write=30,restart=120", risk_objective="ttrain_p99",
            monte_carlo_replicas=8,
        ).run(workload)
        assert report.feasible
        assert report.time_to_train is not None
        assert report.time_to_train.expected_slowdown >= 1.0
        assert report.iteration_time_s >= base.iteration_time_s
        assert any("failure process" in note for note in report.notes)


# ------------------------------------------- shared draws and fast-forward
#
# Frozen copy of the failure walk as it was before arrival streams were
# memoized and uninterrupted checkpoint segments fast-forwarded: every rank
# stream redrawn per walk, a heap merge per trace, one outer-loop pass per
# segment.  The property tests below hold the current walk to it exactly.

class _FrozenRankArrivals:
    def __init__(self, spec, rank, seed, replica):
        self._spec = spec
        self._rng = np.random.default_rng([0x46414C, seed, replica, rank])
        self._time = 0.0
        if spec.process == "weibull":
            self._scale = spec.mtbf_s / math.gamma(1.0 + 1.0 / spec.weibull_shape)
        else:
            self._scale = spec.mtbf_s

    def next_event(self):
        if self._spec.process == "weibull":
            interval = self._scale * float(self._rng.weibull(self._spec.weibull_shape))
        else:
            interval = float(self._rng.exponential(self._scale))
        self._time += interval
        correlated = bool(self._rng.random() < self._spec.correlated_prob)
        return self._time, correlated


def _frozen_node_ranks(rank, num_ranks, gpus_per_node):
    first = (rank // gpus_per_node) * gpus_per_node
    return tuple(range(first, min(first + gpus_per_node, num_ranks)))


class _FrozenLazyTrace:
    def __init__(self, spec, num_ranks, seed, replica, gpus_per_node):
        self._spec = spec
        self._num_ranks = num_ranks
        self._gpus_per_node = gpus_per_node
        self._heap = []
        self._arrivals = []
        if math.isfinite(spec.mtbf_s):
            for rank in range(num_ranks):
                arrivals = _FrozenRankArrivals(spec, rank, seed, replica)
                self._arrivals.append(arrivals)
                time_s, correlated = arrivals.next_event()
                heapq.heappush(self._heap, (time_s, 0, rank, correlated))
        self._next_preempt_index = 1

    def next_event(self):
        preempt_time = (
            self._next_preempt_index * self._spec.preempt_every_s
            if math.isfinite(self._spec.preempt_every_s) else math.inf
        )
        if self._heap and self._heap[0][0] <= preempt_time:
            time_s, _, rank, correlated = heapq.heappop(self._heap)
            refill, refill_corr = self._arrivals[rank].next_event()
            heapq.heappush(self._heap, (refill, 0, rank, refill_corr))
            ranks = (
                _frozen_node_ranks(rank, self._num_ranks, self._gpus_per_node)
                if correlated else (rank,)
            )
            return FailureEvent(time_s, ranks, "failure", 0.0)
        self._next_preempt_index += 1
        return FailureEvent(
            preempt_time, tuple(range(self._num_ranks)), "preemption",
            self._spec.preempt_notice_s,
        )


def _frozen_time_to_train(iteration_time_s, target_iterations, spec, recovery,
                          num_ranks=1, replicas=16, seed=0, gpus_per_node=None,
                          ci_halfwidth=None, objective="ttrain_mean",
                          min_replicas=MIN_SEQUENTIAL_REPLICAS):
    """``(samples, failure_counts)`` of the frozen walk."""
    if isinstance(iteration_time_s, (int, float)):
        per_replica = [float(iteration_time_s)]
    else:
        per_replica = [float(value) for value in iteration_time_s]
    node_size = gpus_per_node if gpus_per_node is not None else (spec.gpus_per_node or 8)
    interval = recovery.interval_for(spec, num_ranks)

    def _stop_early(samples):
        return (
            ci_halfwidth is not None
            and len(samples) >= min_replicas
            and len(samples) < replicas
            and distribution_ci_halfwidth(samples, objective) / target_iterations
            <= ci_halfwidth
        )

    if spec.is_null:
        null_samples = []
        for replica in range(replicas):
            null_samples.append(
                target_iterations * per_replica[replica % len(per_replica)])
            if _stop_early(null_samples):
                break
        return tuple(null_samples), (0,) * len(null_samples)

    write = recovery.checkpoint_write_s
    restart = recovery.restart_overhead_s
    continuous = interval == 0.0
    min_ranks = max(int(math.ceil(recovery.min_rank_fraction * num_ranks)), 1)
    samples, counts = [], []
    for replica in range(replicas):
        iter_s = per_replica[replica % len(per_replica)]
        target_work = target_iterations * iter_s
        cap = max(target_work, 1e-12) * MAX_SLOWDOWN
        trace = _FrozenLazyTrace(spec, num_ranks, seed, replica, node_size)
        clock = durable = segment_start = 0.0
        surviving = num_ranks
        dead = set()
        interruptions = 0
        event = trace.next_event()
        while durable < target_work and clock < cap:
            slowdown = num_ranks / surviving
            remaining = target_work - durable
            if continuous or remaining <= interval or math.isinf(interval):
                segment_end = segment_start + remaining * slowdown
                segment_durable = remaining
            else:
                segment_end = segment_start + interval * slowdown + write
                segment_durable = interval
            while event.time_s < segment_end:
                lost_event = event
                event = trace.next_event()
                newly_dead = [
                    r for r in lost_event.ranks if r < num_ranks and r not in dead
                ]
                if lost_event.kind == "failure" and not newly_dead:
                    continue
                interruptions += 1
                busy = max(lost_event.time_s - segment_start, 0.0)
                worked = min(busy / slowdown, segment_durable)
                if continuous or (
                    lost_event.kind == "preemption" and lost_event.notice_s >= write
                ):
                    durable = min(durable + worked, target_work)
                if (
                    recovery.elastic
                    and lost_event.kind == "failure"
                    and surviving - len(newly_dead) >= min_ranks
                ):
                    dead.update(newly_dead)
                    surviving = num_ranks - len(dead)
                    clock = lost_event.time_s
                else:
                    surviving = num_ranks
                    dead.clear()
                    clock = lost_event.time_s + restart
                slowdown = num_ranks / surviving
                segment_start = clock
                while event.time_s < segment_start:
                    event = trace.next_event()
                remaining = target_work - durable
                if continuous or remaining <= interval or math.isinf(interval):
                    segment_end = segment_start + remaining * slowdown
                    segment_durable = remaining
                else:
                    segment_end = segment_start + interval * slowdown + write
                    segment_durable = interval
                if clock >= cap or durable >= target_work:
                    break
            else:
                durable += segment_durable
                clock = segment_end
                segment_start = segment_end
                continue
        samples.append(min(clock, cap))
        counts.append(interruptions)
        if _stop_early(samples):
            break
    return tuple(samples), tuple(counts)


_SPECS = st.builds(
    FailureSpec,
    mtbf_s=st.one_of(st.just(math.inf), st.floats(2000.0, 50000.0)),
    process=st.sampled_from(["poisson", "weibull"]),
    weibull_shape=st.floats(0.5, 2.0),
    correlated_prob=st.sampled_from([0.0, 0.3, 1.0]),
    gpus_per_node=st.one_of(st.none(), st.integers(1, 4)),
    preempt_every_s=st.one_of(st.just(math.inf), st.floats(1000.0, 20000.0)),
    preempt_notice_s=st.sampled_from([0.0, 5.0, 60.0]),
)

_RECOVERIES = st.builds(
    RecoveryModel,
    checkpoint_write_s=st.sampled_from([0.0, 5.0, 30.0]),
    restart_overhead_s=st.floats(0.0, 200.0),
    checkpoint_interval_s=st.one_of(st.none(), st.floats(5.0, 300.0)),
    elastic=st.booleans(),
    min_rank_fraction=st.sampled_from([0.25, 0.5, 1.0]),
)

_ITERATION_TIMES = st.one_of(
    st.floats(0.5, 3.0),
    st.lists(st.floats(0.5, 3.0), min_size=1, max_size=3),
)


class TestWalkEquivalence:
    """The walk reads shared, memoized arrival streams and fast-forwards
    uninterrupted checkpoint segments; neither may change a bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        spec=_SPECS, recovery=_RECOVERIES, iteration_time=_ITERATION_TIMES,
        target=st.integers(1, 3000), num_ranks=st.integers(1, 6),
        replicas=st.integers(1, 12), seed=st.integers(0, 3),
        ci_halfwidth=st.one_of(st.none(), st.floats(0.001, 1.0)),
        objective=st.sampled_from(TTRAIN_OBJECTIVES),
    )
    # A free write: interval 0, the continuous-checkpointing limit.
    @example(spec=FailureSpec(mtbf_s=3000.0, correlated_prob=0.3),
             recovery=RecoveryModel(checkpoint_write_s=0.0, restart_overhead_s=50.0),
             iteration_time=1.0, target=300, num_ranks=4, replicas=8, seed=0,
             ci_halfwidth=None, objective="ttrain_mean")
    # An infinite interval: no checkpoint before the end of the job, and a
    # preemption exactly at that end (600 s of work).
    @example(spec=FailureSpec(preempt_every_s=600.0),
             recovery=RecoveryModel(checkpoint_write_s=5.0, restart_overhead_s=20.0,
                                    checkpoint_interval_s=math.inf),
             iteration_time=2.0, target=300, num_ranks=3, replicas=2, seed=1,
             ci_halfwidth=None, objective="ttrain_p99")
    # Preemptions land exactly on segment ends (50 s of work + a 50 s write):
    # the first segment from a restart, a fast-forwarded one, and then the
    # remaining work equals the interval, so the job ends without a write.
    @example(spec=FailureSpec(preempt_every_s=1000.0),
             recovery=RecoveryModel(checkpoint_write_s=50.0, restart_overhead_s=0.0,
                                    checkpoint_interval_s=50.0),
             iteration_time=1.0, target=600, num_ranks=2, replicas=2, seed=0,
             ci_halfwidth=None, objective="ttrain_mean")
    # Every preemption lands on the end of the first segment after the
    # previous one (80 s of work + a 20 s write, no restart gap).
    @example(spec=FailureSpec(preempt_every_s=100.0),
             recovery=RecoveryModel(checkpoint_write_s=20.0, restart_overhead_s=0.0,
                                    checkpoint_interval_s=80.0),
             iteration_time=1.0, target=250, num_ranks=2, replicas=2, seed=0,
             ci_halfwidth=None, objective="ttrain_mean")
    def test_walk_matches_the_frozen_walk(self, spec, recovery, iteration_time,
                                          target, num_ranks, replicas, seed,
                                          ci_halfwidth, objective):
        kwargs = dict(num_ranks=num_ranks, replicas=replicas, seed=seed,
                      ci_halfwidth=ci_halfwidth, objective=objective)
        expected = _frozen_time_to_train(iteration_time, target, spec, recovery,
                                         **kwargs)
        # Cold memo, then again warm: shared draws must not change a bit.
        clear_failure_arrival_memo()
        for _ in range(2):
            dist = simulate_time_to_train(iteration_time, target, spec, recovery,
                                          **kwargs)
            assert (dist.samples, dist.failure_counts) == expected

    @settings(max_examples=60, deadline=None)
    @given(spec=_SPECS, num_ranks=st.integers(1, 6), seed=st.integers(0, 3),
           replica=st.integers(0, 7), gpus_per_node=st.integers(1, 4))
    def test_trace_cursor_matches_the_frozen_merge(self, spec, num_ranks, seed,
                                                   replica, gpus_per_node):
        """Event for event, ties included, the cursor over the shared stream
        replays the frozen per-walk heap merge."""
        assume(not spec.is_null)
        frozen = _FrozenLazyTrace(spec, num_ranks, seed, replica, gpus_per_node)
        cursor = _LazyTrace(spec, num_ranks, seed, replica, gpus_per_node)
        for _ in range(40):
            assert cursor.next_event() == frozen.next_event()


class _ScriptedRankArrivals:
    def __init__(self, times):
        self._times = list(times)

    def next_event(self):
        return (self._times.pop(0) if self._times else math.inf), False


def _frozen_draw_failure_trace(spec, num_ranks, horizon_s, seed, replica, node_size):
    events = []
    if math.isfinite(spec.mtbf_s):
        for rank in range(num_ranks):
            arrivals = _FrozenRankArrivals(spec, rank, seed, replica)
            while True:
                time_s, correlated = arrivals.next_event()
                if time_s > horizon_s:
                    break
                ranks = (_frozen_node_ranks(rank, num_ranks, node_size)
                         if correlated else (rank,))
                events.append(FailureEvent(time_s, ranks, "failure", 0.0))
    if math.isfinite(spec.preempt_every_s):
        count = int(horizon_s / spec.preempt_every_s)
        for index in range(1, count + 1):
            events.append(FailureEvent(index * spec.preempt_every_s,
                                       tuple(range(num_ranks)), "preemption",
                                       spec.preempt_notice_s))
    events.sort(key=lambda event: (event.time_s, event.kind))
    return tuple(events)


class TestSharedArrivalDraws:
    def test_merge_order_on_exact_ties(self, monkeypatch):
        """Same-instant failures come out by rank, and a failure comes out
        ahead of a preemption at the same instant."""
        import repro.sim.failures as failures_mod

        scripted = {0: [100.0, 250.0], 1: [100.0, 200.0]}
        monkeypatch.setattr(
            failures_mod, "_RankArrivals",
            lambda spec, rank, seed, replica: _ScriptedRankArrivals(scripted[rank]),
        )
        clear_failure_arrival_memo()
        spec = FailureSpec(mtbf_s=1000.0, preempt_every_s=200.0)
        trace = _LazyTrace(spec, 2, 0, 0, 8)
        events = [trace.next_event() for _ in range(5)]
        clear_failure_arrival_memo()
        assert [(e.time_s, e.ranks, e.kind) for e in events] == [
            (100.0, (0,), "failure"),
            (100.0, (1,), "failure"),
            (200.0, (1,), "failure"),
            (200.0, (0, 1), "preemption"),
            (250.0, (0,), "failure"),
        ]

    @settings(max_examples=60, deadline=None)
    @given(spec=_SPECS, num_ranks=st.integers(1, 6), seed=st.integers(0, 3),
           replica=st.integers(0, 7), horizon=st.floats(0.0, 60000.0),
           node=st.integers(1, 4))
    @example(spec=FailureSpec(mtbf_s=3000.0, preempt_every_s=1000.0), num_ranks=2,
             seed=0, replica=0, horizon=5000.0, node=2)
    # Float edges of the preemption count: the horizon is 3 * every, but
    # int(horizon / every) == 2 ...
    @example(spec=FailureSpec(mtbf_s=20000.0, preempt_every_s=12836.293463920065),
             num_ranks=2, seed=0, replica=0, horizon=38508.88039176019, node=2)
    # ... and the horizon is just below 38 * every, yet int(horizon / every)
    # == 38.
    @example(spec=FailureSpec(mtbf_s=50000.0, preempt_every_s=12529.23293917592),
             num_ranks=2, seed=0, replica=0, horizon=476110.8516886849, node=2)
    def test_draw_failure_trace_matches_the_frozen_trace(self, spec, num_ranks, seed,
                                                         replica, horizon, node):
        """Drawn from the shared stream, the trace is the frozen sorted
        per-rank draw, event for event (a horizon on the preemption grid
        keeps its last preemption)."""
        clear_failure_arrival_memo()
        assert draw_failure_trace(spec, num_ranks, horizon, seed, replica, node) == \
            _frozen_draw_failure_trace(spec, num_ranks, horizon, seed, replica, node)

    def test_horizon_is_inclusive(self):
        spec = FailureSpec(mtbf_s=2000.0, correlated_prob=0.3)
        times = [event.time_s for event in draw_failure_trace(spec, 4, 20000.0, 3)]
        assert len(times) > 5
        clear_failure_arrival_memo()
        trace = draw_failure_trace(spec, 4, times[4], 3)
        assert len(trace) == 5 and trace[-1].time_s == times[4]
        assert trace == _frozen_draw_failure_trace(spec, 4, times[4], 3, 0, 8)

    @settings(max_examples=60, deadline=None)
    @given(spec=_SPECS, num_ranks=st.integers(1, 6), seed=st.integers(0, 3),
           replica=st.integers(0, 7), horizon=st.floats(0.0, 60000.0),
           trace_first=st.booleans())
    def test_memoized_trace_equals_draw_failure_trace(self, spec, num_ranks, seed,
                                                      replica, horizon, trace_first):
        """The walk's trace read up to a horizon is the drawn trace, event
        for event, whichever of the two reads the shared stream first."""
        assume(not spec.is_null)
        node = spec.gpus_per_node or 8
        clear_failure_arrival_memo()
        drawn = None
        if not trace_first:
            drawn = draw_failure_trace(spec, num_ranks, horizon, seed, replica)
        trace = _LazyTrace(spec, num_ranks, seed, replica, node)
        walked = []
        event = trace.next_event()
        while event.time_s <= horizon:
            walked.append(event)
            event = trace.next_event()
        if drawn is None:
            drawn = draw_failure_trace(spec, num_ranks, horizon, seed, replica)
        assert tuple(walked) == drawn

    @staticmethod
    def _read(spec, num_ranks, seed, replica, node, count):
        trace = _LazyTrace(spec, num_ranks, seed, replica, node)
        return [trace.next_event() for _ in range(count)]

    @settings(max_examples=40, deadline=None)
    @given(spec=_SPECS, num_ranks=st.integers(1, 6), seed=st.integers(0, 3),
           replica=st.integers(0, 7), shallow=st.integers(1, 20),
           deep=st.integers(1, 60))
    def test_reads_in_either_order_give_identical_prefixes(self, spec, num_ranks,
                                                           seed, replica,
                                                           shallow, deep):
        assume(not spec.is_null)
        node = spec.gpus_per_node or 8
        args = (spec, num_ranks, seed, replica, node)
        clear_failure_arrival_memo()
        short_first = self._read(*args, shallow)
        long_second = self._read(*args, deep)
        clear_failure_arrival_memo()
        long_first = self._read(*args, deep)
        short_second = self._read(*args, shallow)
        assert long_first == long_second
        assert short_first == short_second
        common = min(shallow, deep)
        assert short_first[:common] == long_first[:common]

    def test_reading_past_the_shared_prefix_continues_the_stream(self):
        """A stream keeps at most _SHARED_EVENTS events; cursors reading
        further continue on private forks that replay the frozen stream."""
        spec = FailureSpec(mtbf_s=100.0, correlated_prob=0.3)
        clear_failure_arrival_memo()
        depth = _SHARED_EVENTS + 300
        frozen = _FrozenLazyTrace(spec, 3, 1, 2, 2)
        expected = [frozen.next_event() for _ in range(depth)]
        assert self._read(spec, 3, 1, 2, 2, depth) == expected
        assert self._read(spec, 3, 1, 2, 2, depth) == expected
        assert len(_arrival_stream(spec, 3, 1, 2, 2).events) == _SHARED_EVENTS

    def test_threads_sharing_streams_walk_like_the_frozen_walk(self):
        """Threads walking the same replicas at once extend the same shared
        streams; every walk must still read each event once, in order."""
        spec = FailureSpec(mtbf_s=500.0, correlated_prob=0.3, preempt_every_s=3000.0)
        recovery = RecoveryModel(checkpoint_write_s=5.0, restart_overhead_s=20.0)
        args = (1.0, 2000, spec, recovery)
        kwargs = dict(num_ranks=4, replicas=8, seed=9)
        expected = _frozen_time_to_train(*args, **kwargs)
        clear_failure_arrival_memo()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(simulate_time_to_train, *args, **kwargs)
                           for _ in range(16)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(previous)
        for dist in results:
            assert (dist.samples, dist.failure_counts) == expected

    def test_clear_fastpath_caches_clears_the_arrival_memo(self):
        simulate_time_to_train(2.0, 200, SPEC, RECOVERY, num_ranks=4,
                               replicas=4, seed=5)
        assert _arrival_stream.cache_info().currsize > 0
        clear_fastpath_caches()
        assert _arrival_stream.cache_info().currsize == 0

    def test_memo_stays_out_of_cache_accounting_and_payload(self):
        """Fleet rows' cache counters and the disk payload cover only the
        fast-path layers; arrival streams are never reported or persisted."""
        clear_fastpath_caches()
        simulate_time_to_train(2.0, 200, SPEC, RECOVERY, num_ranks=4,
                               replicas=4, seed=5)
        assert set(fastpath_cache_info()) == {"schedules", "timelines", "programs"}
        snapshot = snapshot_fastpath_caches()
        assert set(snapshot) == {"schedules", "timelines", "stage_profiles"}
        assert all(not entries for entries in snapshot.values())


class TestSharedWalkPrefix:
    """A segmented walk resumes from the replica's walk with an infinite
    target, kept on the arrival stream; walks of one replica with different
    job lengths, in any order, must each match the frozen walk."""

    @settings(max_examples=80, deadline=None)
    @given(
        spec=_SPECS, recovery=_RECOVERIES, num_ranks=st.integers(1, 4),
        seed=st.integers(0, 3),
        jobs=st.lists(st.tuples(_ITERATION_TIMES, st.integers(1, 3000)),
                      min_size=2, max_size=6),
    )
    # Preemption with a notice long enough to checkpoint, and one too short.
    @example(spec=FailureSpec(mtbf_s=4000.0, preempt_every_s=1500.0, preempt_notice_s=60.0),
             recovery=RecoveryModel(checkpoint_write_s=30.0, checkpoint_interval_s=120.0),
             num_ranks=2, seed=0, jobs=[(2.0, 900), (2.0, 40), (1.5, 3000), (2.5, 900)])
    @example(spec=FailureSpec(preempt_every_s=1000.0, preempt_notice_s=5.0),
             recovery=RecoveryModel(checkpoint_write_s=30.0, restart_overhead_s=10.0,
                                    checkpoint_interval_s=200.0),
             num_ranks=3, seed=1, jobs=[(1.0, 2500), (1.0, 300), (3.0, 2500)])
    # Elastic attrition down to a quarter of the ranks.
    @example(spec=FailureSpec(mtbf_s=2000.0, correlated_prob=0.3, gpus_per_node=2),
             recovery=RecoveryModel(checkpoint_write_s=5.0, restart_overhead_s=100.0,
                                    checkpoint_interval_s=150.0, elastic=True,
                                    min_rank_fraction=0.25),
             num_ranks=4, seed=2, jobs=[(1.0, 3000), (0.5, 100), (2.0, 1500), (1.0, 2999)])
    # A free write (continuous) and an infinite interval walk from time 0.
    @example(spec=FailureSpec(mtbf_s=3000.0, correlated_prob=0.3),
             recovery=RecoveryModel(checkpoint_write_s=0.0, restart_overhead_s=50.0),
             num_ranks=4, seed=0, jobs=[(1.0, 3000), (1.0, 300)])
    @example(spec=FailureSpec(mtbf_s=3000.0, preempt_every_s=600.0),
             recovery=RecoveryModel(checkpoint_interval_s=math.inf),
             num_ranks=2, seed=0, jobs=[(2.0, 1000), (2.0, 100)])
    # Deep walks: some replicas are interrupted more than _SHARED_EVENTS
    # times, so the infinite walk leaves the shared events and its cursor
    # position stops naming its state.
    @example(spec=FailureSpec(mtbf_s=800.0, correlated_prob=0.5, gpus_per_node=4),
             recovery=RecoveryModel(checkpoint_interval_s=2000.0, elastic=True,
                                    min_rank_fraction=0.75),
             num_ranks=2, seed=3, jobs=[(30.0, 400), (29.0, 400), (31.0, 400), (30.0, 37)])
    def test_walks_in_any_order_match_the_frozen_walk(self, spec, recovery, num_ranks,
                                                       seed, jobs):
        clear_failure_arrival_memo()
        for iteration_time, target in jobs:
            expected = _frozen_time_to_train(iteration_time, target, spec, recovery,
                                             num_ranks=num_ranks, replicas=4, seed=seed)
            dist = simulate_time_to_train(iteration_time, target, spec, recovery,
                                          num_ranks=num_ranks, replicas=4, seed=seed)
            assert (dist.samples, dist.failure_counts) == expected

    def test_threads_extending_one_prefix_walk_like_the_frozen_walk(self):
        """Threads walking the same replicas to different finish lines at
        once extend and read the same prefixes."""
        spec = FailureSpec(mtbf_s=500.0, correlated_prob=0.3, preempt_every_s=3000.0)
        recovery = RecoveryModel(checkpoint_write_s=5.0, restart_overhead_s=20.0)
        jobs = [(iteration_time, 2000) for iteration_time in (0.5, 1.0, 1.5, 2.0)] * 4
        kwargs = dict(num_ranks=4, replicas=8, seed=9)
        expected = [_frozen_time_to_train(*job, spec, recovery, **kwargs) for job in jobs]
        clear_failure_arrival_memo()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(simulate_time_to_train, *job, spec, recovery, **kwargs)
                           for job in jobs]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(previous)
        assert [(dist.samples, dist.failure_counts) for dist in results] == expected

    @staticmethod
    def _prefixes(num_ranks, replica):
        return _arrival_stream(SPEC, num_ranks, 5, replica, 8).prefixes

    def test_segmented_walks_keep_one_prefix_per_recovery(self):
        clear_failure_arrival_memo()
        for recovery in (RECOVERY, RecoveryModel(checkpoint_write_s=5.0)):
            for iteration_time in (2.0, 3.0):
                simulate_time_to_train(iteration_time, 200, SPEC, recovery,
                                       num_ranks=4, replicas=2, seed=5)
        assert len(self._prefixes(4, 0)) == 2
        assert len(self._prefixes(4, 1)) == 2

    def test_continuous_and_unsegmented_walks_keep_none(self):
        clear_failure_arrival_memo()
        for recovery in (RecoveryModel(checkpoint_write_s=0.0),
                         RecoveryModel(checkpoint_interval_s=math.inf)):
            simulate_time_to_train(2.0, 200, SPEC, recovery, num_ranks=3,
                                   replicas=2, seed=5)
        assert not self._prefixes(3, 0)

    def test_clear_fastpath_caches_drops_the_prefixes(self):
        clear_fastpath_caches()
        simulate_time_to_train(2.0, 200, SPEC, RECOVERY, num_ranks=4, replicas=2, seed=5)
        assert self._prefixes(4, 0)
        clear_fastpath_caches()
        assert not self._prefixes(4, 0)


class TestWalkArguments:
    """Counts must be ints in range and the objective known, before any walk."""

    @pytest.mark.parametrize("kwargs", [
        dict(target_iterations=10.5),
        dict(target_iterations=True),
        dict(target_iterations="10"),
        dict(min_replicas=2.5),
        dict(replicas=2.0),
        dict(num_ranks=np.int64(2)),
        dict(gpus_per_node=0),
        dict(gpus_per_node=2.0),
        dict(objective="ttrain_median"),
        dict(objective="ttrain_median", ci_halfwidth=None),
    ])
    def test_rejects_bad_arguments_up_front(self, kwargs):
        args = dict(iteration_time_s=1.0, target_iterations=10, spec=SPEC, num_ranks=4,
                    replicas=4, ci_halfwidth=0.1)
        args.update(kwargs)
        with pytest.raises(ValueError):
            simulate_time_to_train(**args)

    def test_zero_gpus_per_node_fails_before_the_first_correlated_failure(self):
        with pytest.raises(ValueError, match="gpus_per_node"):
            simulate_time_to_train(1.0, 10, FailureSpec(mtbf_s=1.0, correlated_prob=1.0),
                                   num_ranks=4, gpus_per_node=0)

    @pytest.mark.parametrize("objective", TTRAIN_OBJECTIVES + ("mean", "p99", "cvar"))
    def test_accepts_every_objective_the_ci_estimator_accepts(self, objective):
        distribution_ci_halfwidth((), objective)
        simulate_time_to_train(1.0, 10, SPEC, replicas=2, objective=objective)
