"""Tests for the MEMO framework facade (profiler, planner, runtime)."""

import pytest

from repro.config import tokens
from repro.core.framework import MemoFramework
from repro.core.memory_planner import MemoryPlanner
from repro.core.profiler import JobProfiler
from repro.core.runtime import RuntimeExecutor
from repro.hardware.cluster import make_a800_cluster
from repro.parallel.strategy import ParallelismConfig
from repro.systems.metrics import compute_mfu, compute_tgs


@pytest.fixture(scope="module")
def framework():
    return MemoFramework.for_workload(
        "7B", sequence_length=tokens(256), num_gpus=8,
        tensor_parallel=4, context_parallel=2, use_exact_planner=False,
    )


@pytest.fixture(scope="module")
def plan(framework):
    return framework.prepare()


class TestJobProfiler:
    def test_profile_contents(self, gpt7b, cluster8, tp4cp2):
        profiler = JobProfiler(model=gpt7b, cluster=cluster8, parallel=tp4cp2)
        profile = profiler.profile(tokens(256))
        assert profile.local_sequence_length == tokens(128)
        assert profile.layers_per_stage == 32
        assert profile.layer_costs.forward_total_s > 0
        assert len(profile.layer_forward_requests) > 0
        # Skeletal sizes are per GPU: sharded by TP.
        assert profile.skeletal_input_bytes == pytest.approx(
            tokens(128) * 4096 * 2 / 4
        )

    def test_alpha_problem_round_trip(self, gpt7b, cluster8, tp4cp2):
        profile = JobProfiler(model=gpt7b, cluster=cluster8, parallel=tp4cp2).profile(tokens(256))
        problem = profile.alpha_problem()
        assert problem.num_layers == 32
        assert problem.cpu_memory_bytes == cluster8.node.cpu_memory_per_gpu_bytes

    def test_rejects_bad_sequence(self, gpt7b, cluster8, tp4cp2):
        with pytest.raises(ValueError):
            JobProfiler(model=gpt7b, cluster=cluster8, parallel=tp4cp2).profile(0)


class TestMemoryPlannerComponent:
    def test_planning_result(self, gpt7b):
        planner = MemoryPlanner(model=gpt7b, batch_size=1, local_sequence_length=1024, use_exact=False)
        result = planner.plan()
        assert result.layer_peak_bytes > 0
        assert result.total_peak_bytes >= result.layer_peak_bytes
        assert result.planning_time_s < 60.0
        assert len(result.plan) > 0


class TestFramework:
    def test_prepare_produces_consistent_plan(self, plan):
        assert plan.schedule.alpha == pytest.approx(plan.alpha.alpha)
        assert plan.planning.total_peak_bytes > 0
        assert plan.schedule.num_layers == 32

    def test_execute_runs_one_iteration(self, framework, plan):
        result = framework.execute(plan)
        assert result.iteration_time_s > 0
        assert 0 < result.overlap_efficiency <= 1.0
        assert result.host_bytes_used <= plan.schedule.host_capacity_bytes

    def test_alpha_override(self, framework):
        pinned = framework.prepare(alpha=0.25)
        assert pinned.schedule.alpha == pytest.approx(0.25)

    def test_estimate_efficiency(self, framework, plan):
        seconds = framework.execute(plan).iteration_time_s
        gpus = framework.parallel.total_gpus
        mfu = compute_mfu(
            framework.model, framework.sequence_length, 1, gpus, framework.cluster.gpu, seconds,
        )
        assert 0.2 < mfu < 0.7
        assert compute_tgs(framework.sequence_length, 1, gpus, seconds) > 0

    def test_for_workload_validates_divisibility(self):
        with pytest.raises(ValueError):
            MemoFramework.for_workload("7B", tokens(64), num_gpus=8,
                                       tensor_parallel=4, context_parallel=4)


class TestRuntimeExecutor:
    def test_capacity_violation_detected_before_execution(self, framework, plan, cluster8):
        executor = RuntimeExecutor(
            plan=plan.planning.plan,
            schedule=plan.schedule,
            layer_costs=plan.profile.layer_costs,
            pcie_bandwidth_bytes_per_s=plan.profile.pcie_bandwidth_bytes_per_s,
            gpu_memory_bytes=1,  # absurdly small device
        )
        from repro.memory.planned_allocator import PlanViolationError
        with pytest.raises(PlanViolationError):
            executor.execute()

    def test_tasks_match_schedule(self, framework, plan):
        executor = RuntimeExecutor(
            plan=plan.planning.plan,
            schedule=plan.schedule,
            layer_costs=plan.profile.layer_costs,
            pcie_bandwidth_bytes_per_s=plan.profile.pcie_bandwidth_bytes_per_s,
        )
        tasks = executor.build_tasks()
        assert len(tasks) == plan.schedule.num_layers
        assert tasks[-1].resident and tasks[-2].resident
        assert tasks[0].offload_bytes == plan.schedule.layers[0].offload_bytes
