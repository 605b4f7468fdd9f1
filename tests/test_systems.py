"""Tests for the training systems (MEMO, Megatron-LM, DeepSpeed) and metrics."""

import dataclasses
import functools

import pytest

import repro.parallel.search as search
import repro.systems.base as base
from repro.config import tokens
from repro.fleet.grid import GridSpecError, SearchSettings, WorkloadGrid, WorkloadPoint
from repro.fleet.planner import plan_fleet, resolve_cache_path
from repro.hardware.cluster import make_a800_cluster
from repro.parallel.search import enumerate_strategies
from repro.parallel.strategy import OffloadMode, ParallelismConfig, RecomputeMode
from repro.sim.costs import CostModel
from repro.sim.fastpath import _read_cache_payload, clear_fastpath_caches
from repro.sim.schedules import ScheduleKind
from repro.systems.base import Workload
from repro.systems.deepspeed import DeepSpeedSystem
from repro.systems.megatron import MegatronSystem
from repro.systems.memo import MemoSystem, MemoVariant
from repro.systems.metrics import compute_mfu, compute_tgs, format_wall_clock
from repro.hardware.gpu import A800
from repro.experiments.table4 import ablation_parallel_config


class TestMetrics:
    def test_mfu_definition(self, gpt7b):
        mfu = compute_mfu(gpt7b, 4096, 16, 8, A800, iteration_time_s=2.3)
        assert 0.3 < mfu < 0.7

    def test_tgs_definition(self):
        assert compute_tgs(4096, 16, 8, 2.0) == pytest.approx(4096 * 16 / (8 * 2.0))

    def test_mfu_inverse_to_time(self, gpt7b):
        fast = compute_mfu(gpt7b, 4096, 16, 8, A800, 1.0)
        slow = compute_mfu(gpt7b, 4096, 16, 8, A800, 2.0)
        assert fast == pytest.approx(2 * slow)

    def test_invalid_inputs_rejected(self, gpt7b):
        with pytest.raises(ValueError):
            compute_mfu(gpt7b, 4096, 16, 8, A800, 0.0)
        with pytest.raises(ValueError):
            compute_tgs(4096, 0, 8, 1.0)

    @pytest.mark.parametrize(
        "seconds, expected",
        [(2.29, "2.29s"), (26.1, "26.10s"), (771, "12m51s"), (2 * 3600 + 6 * 60, "2h6m"),
         (59.9, "59.90s"), (3599, "59m59s")],
    )
    def test_wall_clock_format(self, seconds, expected):
        assert format_wall_clock(seconds) == expected

    def test_wall_clock_rejects_negative(self):
        with pytest.raises(ValueError):
            format_wall_clock(-1)


class TestWorkload:
    def test_defaults(self):
        workload = Workload("7B", tokens(256), 8)
        assert workload.global_batch_samples == 16
        assert workload.model.name == "7B"
        assert workload.cluster().num_gpus == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            Workload("7B", 0, 8)
        with pytest.raises(ValueError):
            Workload("7B", 1024, 0)

    @pytest.mark.parametrize("name, value", [
        ("micro_batch_size", 0), ("micro_batch_size", -1), ("micro_batch_size", 1.5),
        ("global_batch_samples", 2.5), ("global_batch_samples", 0),
        ("sequence_length", 8192.5), ("sequence_length", 8192.0),
        ("num_gpus", True), ("num_gpus", 2.0), ("num_gpus", "2"),
    ])
    def test_rejects_impossible_shapes_up_front(self, name, value):
        shape = dict(model_name="7B", sequence_length=8192, num_gpus=2,
                     global_batch_samples=4, micro_batch_size=1)
        shape[name] = value
        with pytest.raises(ValueError, match=f"{name} must be an int >= 1"):
            Workload(**shape)

    @pytest.mark.parametrize("point", [
        {"global_batch": 2.5}, {"gpus": True}, {"sequence_length": 8192.5},
        {"global_batch": 0}, {"gpus": "2"},
    ])
    def test_grid_rejects_impossible_points_at_load_time(self, point):
        spec = {"points": [dict({"model": "7B", "seqlen_k": 8, "gpus": 2,
                                 "global_batch": 4}, **point)]}
        if "sequence_length" in point:
            del spec["points"][0]["seqlen_k"]
        with pytest.raises(GridSpecError, match="bad workload point"):
            WorkloadGrid.from_spec(spec)
        with pytest.raises(GridSpecError, match="bad workload point"):
            WorkloadGrid.from_spec({"axes": {key: [value] for key, value in point.items()}})


class TestMemoSystem:
    def test_reports_feasible_with_high_mfu_at_256k(self):
        report = MemoSystem().run(Workload("7B", tokens(256), 8))
        assert report.feasible
        assert report.mfu > 0.45
        assert report.tgs > 0
        assert report.parallel is not None
        assert report.alpha is not None

    def test_supports_one_million_tokens_on_8_gpus(self):
        """The paper's headline: 7B with a 1M context on 8 GPUs, MFU > 50%."""
        report = MemoSystem().run(Workload("7B", tokens(1024), 8))
        assert report.feasible
        assert report.mfu > 0.45

    def test_eventually_runs_out_of_memory(self):
        report = MemoSystem().run(Workload("7B", tokens(4096), 8))
        assert not report.feasible
        assert report.failure_reason in ("oom", "oohm")

    def test_fixed_alpha_and_parallel(self):
        system = MemoSystem(fixed_alpha=0.5, fixed_parallel=ablation_parallel_config())
        report = system.run(Workload("7B", tokens(256), 8))
        assert report.feasible
        assert report.alpha == pytest.approx(0.5)
        assert report.parallel.tensor_parallel == 4
        assert report.parallel.context_parallel == 2

    def test_variants_have_expected_modes(self):
        assert MemoSystem(variant=MemoVariant.FULL_SWAP)._modes() == (
            RecomputeMode.NONE, OffloadMode.FULL,
        )
        assert MemoSystem(variant=MemoVariant.FULL_RECOMPUTE)._modes() == (
            RecomputeMode.FULL, OffloadMode.NONE,
        )
        assert not MemoSystem(variant=MemoVariant.FULL_RECOMPUTE_NO_PLAN).uses_memory_planning
        assert MemoSystem(variant=MemoVariant.FULL).uses_memory_planning

    def test_cell_rendering(self):
        report = MemoSystem().run(Workload("7B", tokens(64), 8))
        assert report.cell("mfu").endswith("%")
        assert report.cell("tgs").replace(".", "").isdigit()
        with pytest.raises(ValueError):
            report.cell("latency")


class TestBaselines:
    def test_megatron_feasible_at_moderate_length(self):
        report = MegatronSystem().run(Workload("7B", tokens(128), 8))
        assert report.feasible
        assert 0.15 < report.mfu < 0.6

    def test_megatron_ooms_before_memo(self):
        workload = Workload("7B", tokens(1024), 8)
        assert not MegatronSystem().run(workload).feasible
        assert MemoSystem().run(workload).feasible

    def test_deepspeed_sp_degree_limited_by_heads_and_gpus(self):
        system = DeepSpeedSystem()
        space = system.search_space(Workload("30B", tokens(64), 32))
        assert max(space.ulysses_parallel) == 8  # 56 heads on 32 GPUs -> at most 8

    def test_deepspeed_ooms_before_megatron_at_long_context(self):
        workload = Workload("7B", tokens(640), 8)
        assert not DeepSpeedSystem().run(workload).feasible
        assert MegatronSystem().run(workload).feasible

    def test_failure_reports_render_markers(self):
        report = DeepSpeedSystem().run(Workload("7B", tokens(1024), 8))
        assert not report.feasible
        assert report.cell("mfu").startswith("%oo")


class TestSystemComparison:
    @pytest.mark.parametrize("length_k", [128, 256, 512])
    def test_memo_beats_baselines(self, length_k):
        """The central end-to-end claim of the paper."""
        workload = Workload("7B", tokens(length_k), 8)
        memo = MemoSystem().run(workload)
        megatron = MegatronSystem().run(workload)
        deepspeed = DeepSpeedSystem().run(workload)
        assert memo.feasible
        for baseline in (megatron, deepspeed):
            if baseline.feasible:
                assert memo.mfu > baseline.mfu
                assert memo.iteration_time_s < baseline.iteration_time_s

    def test_max_sequence_length_ordering(self):
        grid = [128, 256, 384, 512, 640, 768, 1024, 1280]
        memo_max = MemoSystem().max_sequence_length("7B", 8, grid)
        megatron_max = MegatronSystem().max_sequence_length("7B", 8, grid)
        deepspeed_max = DeepSpeedSystem().max_sequence_length("7B", 8, grid)
        assert memo_max >= 1024
        assert deepspeed_max <= megatron_max < memo_max


#: 7B at 8-32 GPUs, batch 16-1024 and 64K/256K: pipelined and unpipelined
#: winners, both pruning levels active, and near-tied schedule candidates.
_PRUNING_GRID = tuple(
    Workload("7B", tokens(length_k), gpus, global_batch_samples=batch)
    for gpus in (8, 16, 32)
    for batch in (16, 128, 1024)
    for length_k in (64, 256)
)


class TestPruningNeverChangesTheSelectedStrategy:
    """The production sweeps, pruned at either level or both, select what
    the unpruned search selects: same strategy, same time, same schedule."""

    # DeepSpeed-Ulysses runs no pipeline, so it has no schedule to prune.
    @pytest.mark.parametrize("system_class, pipelined", [
        (MegatronSystem, True), (DeepSpeedSystem, False), (MemoSystem, True),
    ])
    def test_auto_schedule_grid(self, system_class, pipelined):
        def run(schedule_sweep, strategy_search):
            system = system_class(
                pipeline_schedule="auto",
                prune_schedule_sweep=schedule_sweep,
                prune_strategy_search=strategy_search,
            )
            return [system.run(workload) for workload in _PRUNING_GRID]

        unpruned = run(False, False)
        assert all(report.schedules_pruned == 0 for report in unpruned)
        assert all(report.strategies_pruned == 0 for report in unpruned)
        for levels in ((True, False), (False, True), (True, True)):
            reports = run(*levels)
            for workload, plain, pruned in zip(_PRUNING_GRID, unpruned, reports):
                where = (levels, workload)
                assert pruned.parallel == plain.parallel, where
                assert pruned.iteration_time_s == plain.iteration_time_s, where
                assert pruned.schedule_kind is plain.schedule_kind, where
            # Each level must actually prune on the grid, or the test is vacuous.
            if levels[0] and pipelined:
                assert sum(report.schedules_pruned for report in reports) > 0
            if levels[1]:
                assert sum(report.strategies_pruned for report in reports) > 0


_VERDICT_SCHEDULES = (None, "1f1b", "interleaved", "zb-h1", "zb-v", "auto")
#: 4-GPU, batch-8 workloads whose strategies fit, run out of GPU memory and
#: (MEMO's offload strategies at 2M tokens) out of host memory.
_VERDICT_WORKLOADS = (
    Workload("7B", tokens(32), 4, 8),
    Workload("7B", tokens(512), 4, 8),
    Workload("7B", tokens(2048), 4, 8),
)


def _candidates(system, workload):
    return enumerate_strategies(
        system.search_space(workload), workload.model, workload.num_gpus,
        gpus_per_node=workload.cluster().node.gpus_per_node,
        global_batch_samples=workload.global_batch_samples,
    )


class TestMemoryVerdictFirst:
    """An unscaled footprint over the GPU returns candidate 0's OOM verdict
    without bounding or building the sweep -- exactly what the full sweep
    would have returned, field for field."""

    @pytest.mark.parametrize("system_cls", [MegatronSystem, DeepSpeedSystem, MemoSystem])
    def test_matches_the_full_sweep(self, system_cls, monkeypatch):
        every_oom = base._every_candidate_oom
        fired = []

        def spy(memory, gpu_memory_bytes):
            verdict = every_oom(memory, gpu_memory_bytes)
            fired.append(verdict)
            return verdict

        reasons = set()
        zb_v_early_exits = 0
        for schedule in _VERDICT_SCHEDULES:
            for workload in _VERDICT_WORKLOADS:
                system = system_cls(pipeline_schedule=schedule)
                for parallel in _candidates(system, workload):
                    monkeypatch.setattr(base, "_every_candidate_oom", spy)
                    fired.clear()
                    shortcut = system.evaluate_strategy(workload, parallel)
                    monkeypatch.setattr(base, "_every_candidate_oom", lambda *args: False)
                    swept = system.evaluate_strategy(workload, parallel)
                    for field in dataclasses.fields(shortcut):
                        assert getattr(shortcut, field.name) == getattr(swept, field.name), (
                            schedule, workload, parallel, field.name,
                        )
                    reasons.add(shortcut.reason)
                    if any(fired) and parallel.pipeline_parallel > 1 and (
                        shortcut.schedule_kind is ScheduleKind.ZB_V
                    ):
                        zb_v_early_exits += 1
                monkeypatch.setattr(base, "_every_candidate_oom", every_oom)
                report = system.run(workload).to_json()
                monkeypatch.setattr(base, "_every_candidate_oom", lambda *args: False)
                assert report == system.run(workload).to_json(), (schedule, workload)
        assert {None, "oom"} <= reasons
        if system_cls is MemoSystem:
            assert "oohm" in reasons  # the swap-schedule verdict keeps precedence
        if system_cls is MegatronSystem:
            # ZB-V's wave ratio needs the candidate's stage costs.
            assert zb_v_early_exits > 0

    def test_oom_verdict_builds_one_schedule_and_simulates_nothing(self, monkeypatch):
        calls = {"tasks": 0, "simulate": 0, "bound": 0, "build": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(base, "LayerTask", counting("tasks", base.LayerTask))
        monkeypatch.setattr(base, "simulate_iteration",
                            counting("simulate", base.simulate_iteration))
        monkeypatch.setattr(base, "pipeline_lower_bound_for_shape",
                            counting("bound", base.pipeline_lower_bound_for_shape))
        monkeypatch.setattr(search, "cached_build_schedule",
                            counting("build", search.cached_build_schedule))
        system = MegatronSystem(pipeline_schedule="auto")
        parallel = ParallelismConfig(tensor_parallel=2, pipeline_parallel=2, micro_batches=8)
        evaluation = system.evaluate_strategy(Workload("7B", tokens(2048), 4, 8), parallel)
        assert evaluation.reason == "oom"
        assert (evaluation.schedules_simulated, evaluation.schedules_pruned) == (0, 0)
        assert calls == {"tasks": 0, "simulate": 0, "bound": 0, "build": 1}


class TestMonteCarloSeedValidation:
    @pytest.mark.parametrize("seed", [-1, "x", 1.5, True, None])
    def test_system_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="monte_carlo_seed"):
            MegatronSystem(monte_carlo_seed=seed)

    def test_system_accepts_non_negative_int_seed(self):
        assert MegatronSystem(monte_carlo_seed=0).config.monte_carlo_seed == 0
        assert MegatronSystem(monte_carlo_seed=7).config.monte_carlo_seed == 7

    @pytest.mark.parametrize("search", [
        {"seed": -1}, {"seed": "x"}, {"seed": 1.5},
        {"jitter": "compute=nan"}, {"objective": "bogus"}, {"replicas": "x"},
        {"failures": "bogus"}, {"target_iterations": 0},
    ])
    def test_grid_rejects_bad_search_at_load_time(self, search):
        with pytest.raises(GridSpecError, match="bad search settings"):
            WorkloadGrid.from_spec({"axes": {"model": ["7B"], "gpus": [8]}, "search": search})


class TestCountSettingValidation:
    """Job lengths and replica counts are whole numbers, checked when the
    system is built rather than mid-search."""

    @pytest.mark.parametrize("kwargs", [
        {"target_iterations": 1000.5}, {"target_iterations": True},
        {"target_iterations": "1000"}, {"target_iterations": 0},
        {"monte_carlo_replicas": 2.5}, {"monte_carlo_replicas": False},
        {"monte_carlo_replicas": 0},
        {"stability_replicas": 1.0}, {"stability_replicas": -1},
        {"stability_replicas": True},
        {"monte_carlo_ci_halfwidth": float("nan")}, {"monte_carlo_ci_halfwidth": -0.1},
    ])
    def test_system_rejects_bad_counts(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            MegatronSystem(**kwargs)

    def test_system_accepts_int_counts(self):
        system = MegatronSystem(target_iterations=1000, monte_carlo_replicas=2,
                                stability_replicas=0, monte_carlo_ci_halfwidth=0.0)
        assert (system.config.target_iterations,
                system.config.monte_carlo_replicas) == (1000, 2)

    @pytest.mark.parametrize("search", [
        {"target_iterations": 1000.5}, {"target_iterations": "1000"},
        {"target_iterations": True}, {"replicas": 2.5},
    ])
    def test_grid_rejects_fractional_counts_at_load_time(self, search):
        with pytest.raises(GridSpecError, match="bad search settings"):
            WorkloadGrid.from_spec({"axes": {"model": ["7B"], "gpus": [8]}, "search": search})


#: The lowering-memo lattice: one (model, length, GPUs) shape whose searches
#: prune strategies and keep PP > 1 points on their Pareto frontiers,
#: searched at several global batches.
_MEMO_SHAPE = ("7B", tokens(64), 8)
_MEMO_BATCHES = (4, 6, 8, 64)
_MEMO_SYSTEMS = (
    MegatronSystem, DeepSpeedSystem, MemoSystem,
    functools.partial(MemoSystem, fixed_alpha=0.5),  # token-wise swap only
)
_MEMO_SCHEDULES = (None, "1f1b", "auto")


def _unmemoized_lowering(self, workload, parallel):
    """A fresh, unshared lowering built from the point's own strategy."""
    cost_model = CostModel(
        model=workload.model, cluster=make_a800_cluster(workload.num_gpus),
        parallel=parallel, batch_size=workload.micro_batch_size,
        calibration=self.calibration, precision=self.precision,
    )
    return base._Lowering(cost_model, cost_model.layer_costs(workload.sequence_length), {})


def _memo_reports(batches):
    return {
        (index, schedule, batch): make(pipeline_schedule=schedule).run(
            Workload(*_MEMO_SHAPE, global_batch_samples=batch))
        for index, make in enumerate(_MEMO_SYSTEMS)
        for schedule in _MEMO_SCHEDULES
        for batch in batches
    }


class TestLoweringMemo:
    """Each strategy is lowered once per process and shared by every global
    batch; every report stays byte-identical in any order, warm or cold."""

    def test_reports_identical_in_any_order_warm_and_cold(self, monkeypatch):
        clear_fastpath_caches()
        ascending = _memo_reports(_MEMO_BATCHES)
        descending = _memo_reports(_MEMO_BATCHES[::-1])
        clear_fastpath_caches()
        cold = _memo_reports(_MEMO_BATCHES)
        # Lowered per point from its own strategy: catches an answer that
        # reads the batch-dependent micro-batch count from the memo.
        monkeypatch.setattr(base.TrainingSystem, "_lowering", _unmemoized_lowering)
        unmemoized = _memo_reports(_MEMO_BATCHES)
        as_json = [
            {key: report.to_json() for key, report in reports.items()}
            for reports in (ascending, descending, cold, unmemoized)
        ]
        assert as_json[0] == as_json[1] == as_json[2] == as_json[3]
        # PP > 1 points scored by the no-schedule analytic bubble reach the
        # reports (their frontiers), so a wrong bubble shows in the bytes.
        no_schedule_pp = [
            point for (_, schedule, _), report in cold.items() if schedule is None
            for point in report.pareto_frontier.points
            if point.parallel.pipeline_parallel > 1
        ]
        assert no_schedule_pp

    def test_one_frozen_execution_serves_every_batch_and_system(self):
        parallel = ParallelismConfig(tensor_parallel=4, pipeline_parallel=2,
                                     recompute=RecomputeMode.TOKEN_WISE,
                                     offload=OffloadMode.TOKEN_WISE, micro_batches=2)
        execution = MemoSystem().stage_execution(Workload(*_MEMO_SHAPE), parallel, 0.5)
        other = MemoSystem(fixed_alpha=0.5).stage_execution(
            Workload(*_MEMO_SHAPE, global_batch_samples=64),
            parallel.with_updates(micro_batches=32), 0.5)
        assert other is execution
        assert execution.cost_model.parallel.micro_batches == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            execution.effective_alpha = 1.0

    def test_clear_fastpath_caches_empties_the_memo(self):
        MegatronSystem().run(Workload(*_MEMO_SHAPE))
        assert base._LOWERINGS
        clear_fastpath_caches()
        assert not base._LOWERINGS

    def test_pruned_strategy_builds_no_swap_schedule(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(kwargs["alpha"])
            return build(*args, **kwargs)

        build = base.build_swap_schedule
        monkeypatch.setattr(base, "build_swap_schedule", counting)
        clear_fastpath_caches()
        report = _MEMO_SYSTEMS[3](pipeline_schedule="1f1b").run(
            Workload(*_MEMO_SHAPE, global_batch_samples=6))
        assert report.strategies_pruned > 0
        # Every candidate was bounded, so every one has a lowering entry;
        # only the evaluated ones hold a stage execution and a swap plan.
        assert len(base._LOWERINGS) == report.strategies_evaluated + report.strategies_pruned
        lowered = [entry for entry in base._LOWERINGS.values() if entry.stages]
        assert len(lowered) == report.strategies_evaluated == len(built)
        clear_fastpath_caches()

    def test_point_order_does_not_change_saved_payload_keys(self, tmp_path):
        points = tuple(
            WorkloadPoint("7B", tokens(seqlen_k), 2, batch)
            for seqlen_k in (8, 16) for batch in (4, 6, 8)
        )
        saved = []
        for name, order in (("forward", points), ("backward", points[::-1])):
            clear_fastpath_caches()
            plan_fleet(WorkloadGrid(points=order, search=SearchSettings()),
                       cache_dir=tmp_path / name)
            payload = _read_cache_payload(resolve_cache_path(tmp_path / name))
            saved.append({layer: set(entries) for layer, entries in payload["layers"].items()})
        clear_fastpath_caches()
        assert saved[0] == saved[1]
        assert saved[0]["stage_profiles"]
