"""The MEMO framework facade (Figure 9).

:class:`MemoFramework` wires the three components together the way the paper's
architecture diagram describes: the job profiler collects the memory request
sequence and timing profile, the memory planner runs the bi-level DSA/MIP
optimisation, the alpha LP picks the offload fraction, and the runtime executor
runs the (simulated) training iteration with planned memory and the token-wise
swap/recompute schedule.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from repro.config import (
    DEFAULT_CALIBRATION, DEFAULT_PRECISION, PLAN_MEMO_SIZE, CalibrationConstants, PrecisionConfig,
    require_count,
)
from repro.core.memory_planner import MemoryPlanner, MemoryPlanningResult
from repro.core.profiler import JobProfile, JobProfiler
from repro.core.runtime import RuntimeExecutor, RuntimeResult
from repro.hardware.cluster import ClusterSpec, make_a800_cluster
from repro.model.specs import ModelConfig, get_model_config
from repro.parallel.strategy import OffloadMode, ParallelismConfig, RecomputeMode
from repro.sim.costs import CostModel
from repro.swap.alpha import AlphaSolution, solve_alpha
from repro.swap.schedule import SwapSchedule, build_swap_schedule


@dataclass(frozen=True)
class TrainingPlan:
    """Everything MEMO decides before training starts."""

    profile: JobProfile
    planning: MemoryPlanningResult
    alpha: AlphaSolution
    schedule: SwapSchedule


@dataclass(frozen=True)
class MemoFramework:
    """End-to-end MEMO pipeline for a single workload.

    Frozen, so its fields are the key of the per-process :meth:`prepare` memo.

    Example:
        >>> framework = MemoFramework.for_workload("7B", sequence_length=64 * 1024, num_gpus=8)
        >>> plan = framework.prepare()
        >>> result = framework.execute(plan)
        >>> result.iteration_time_s > 0
        True
    """

    model: ModelConfig
    cluster: ClusterSpec
    parallel: ParallelismConfig
    batch_size: int = 1
    sequence_length: int = 65536
    use_exact_planner: bool = True
    precision: PrecisionConfig = DEFAULT_PRECISION
    calibration: CalibrationConstants = DEFAULT_CALIBRATION

    def __post_init__(self) -> None:
        require_count("batch_size", self.batch_size, 1)
        require_count("sequence_length", self.sequence_length, 1)

    @classmethod
    def for_workload(
        cls,
        model_name: str,
        sequence_length: int,
        num_gpus: int,
        tensor_parallel: int = 4,
        context_parallel: int = 2,
        use_exact_planner: bool = True,
    ) -> "MemoFramework":
        """Build a framework for one of the paper's workloads.

        The default TP=4, CP=2 configuration is the one the ablation studies
        fix for the 7B model on 8 GPUs.
        """
        model = get_model_config(model_name)
        cluster = make_a800_cluster(num_gpus)
        mp = tensor_parallel * context_parallel
        if num_gpus % mp != 0:
            raise ValueError("tensor_parallel * context_parallel must divide num_gpus")
        parallel = ParallelismConfig(
            tensor_parallel=tensor_parallel,
            context_parallel=context_parallel,
            data_parallel=num_gpus // mp,
            recompute=RecomputeMode.TOKEN_WISE,
            offload=OffloadMode.TOKEN_WISE,
        )
        return cls(
            model=model,
            cluster=cluster,
            parallel=parallel,
            sequence_length=sequence_length,
            use_exact_planner=use_exact_planner,
        )

    # ----------------------------------------------------------------- pipeline
    def prepare(self, alpha: Optional[float] = None) -> TrainingPlan:
        """Run the profiler, the memory planner and the alpha LP.

        Memoized per process on the framework's fields and ``alpha``
        (:data:`PLAN_MEMO_SIZE` entries), so a repeated shape shares one
        plan; ``alpha`` is also keyed by ``repr`` (``0.0`` and ``-0.0`` differ).

        Args:
            alpha: optional override of the offload fraction (the Table 5
                sweep); when None the LP solution is used.
        """
        return self._prepare(alpha, repr(alpha))

    @functools.lru_cache(maxsize=PLAN_MEMO_SIZE)
    def _prepare(self, alpha: Optional[float], alpha_key: str) -> TrainingPlan:
        profiler = JobProfiler(
            model=self.model,
            cluster=self.cluster,
            parallel=self.parallel,
            batch_size=self.batch_size,
            precision=self.precision,
            calibration=self.calibration,
        )
        profile = profiler.profile(self.sequence_length)

        planner = MemoryPlanner(
            model=self.model,
            batch_size=self.batch_size,
            local_sequence_length=profile.local_sequence_length,
            use_exact=self.use_exact_planner,
            precision=self.precision,
        )
        planning = planner.plan()

        alpha_solution = solve_alpha(profile.alpha_problem())
        chosen_alpha = alpha_solution.alpha if alpha is None else alpha
        schedule = build_swap_schedule(
            model=self.model,
            batch_size=self.batch_size,
            sequence_length=profile.local_sequence_length,
            layer_forward_time_s=profile.layer_costs.forward_total_s,
            pcie_bandwidth_bytes_per_s=profile.pcie_bandwidth_bytes_per_s,
            host_capacity_bytes=profile.host_budget_bytes,
            num_layers=profile.layers_per_stage,
            alpha=chosen_alpha,
            tensor_shards=self.parallel.tensor_parallel,
            precision=self.precision,
        )
        return TrainingPlan(
            profile=profile,
            planning=planning,
            alpha=alpha_solution,
            schedule=schedule,
        )

    def execute(self, plan: Optional[TrainingPlan] = None) -> RuntimeResult:
        """Execute one training iteration under a prepared plan."""
        if plan is None:
            plan = self.prepare()
        cost_model = CostModel(
            model=self.model,
            cluster=self.cluster,
            parallel=self.parallel,
            batch_size=self.batch_size,
            calibration=self.calibration,
            precision=self.precision,
        )
        params_per_gpu = self.model.num_parameters / (
            self.parallel.tensor_parallel * self.parallel.pipeline_parallel
        )
        executor = RuntimeExecutor(
            plan=plan.planning.plan,
            schedule=plan.schedule,
            layer_costs=plan.profile.layer_costs,
            pcie_bandwidth_bytes_per_s=plan.profile.pcie_bandwidth_bytes_per_s,
            boundary_compute_s=cost_model.embedding_classifier_time(self.sequence_length),
            serial_overhead_s=(
                cost_model.optimizer_step_time(params_per_gpu)
                + cost_model.gradient_sync_time(params_per_gpu)
            ),
            gpu_memory_bytes=self.cluster.gpu.memory_bytes,
        )
        return executor.execute()
