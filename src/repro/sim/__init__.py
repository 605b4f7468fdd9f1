"""Discrete-event training simulator: streams, cost model, iteration executor
and pipeline-parallel schedules.

Two evaluators score a pipeline schedule, bound by one invariant: the
critical-path fast evaluator (:mod:`repro.sim.fastpath`, memoized, used by
the strategy search and the experiment grids) returns bit-identical makespan,
bubble and per-stage peak memory to the discrete-event engine
(:mod:`repro.sim.pipeline`), which remains the opt-in ``validate=True``
correctness oracle.  New schedule kinds must preserve that equivalence --
``tests/test_properties_fastpath.py`` re-proves it on randomized grids."""

from repro.sim.engine import SimulationEngine, SimEvent
from repro.sim.streams import Stream, StreamKind
from repro.sim.costs import LayerCosts, CostModel
from repro.sim.executor import IterationTimeline, LayerTask, simulate_iteration
from repro.sim.schedules import (
    OpKind,
    PipelineSchedule,
    ScheduleKind,
    StageOp,
    build_schedule,
)
from repro.sim.pipeline import (
    PipelineOpRecord,
    PipelineTimeline,
    StageCosts,
    StagePeakMemory,
    peak_activation_bytes,
    simulate_pipeline,
    stage_costs_from_iteration,
    stage_peak_memory,
)
from repro.sim.fastpath import (
    FastPathMismatchError,
    cached_build_schedule,
    clear_fastpath_caches,
    critical_path_timeline,
    evaluate_schedule,
    fastpath_cache_info,
    pipeline_lower_bound,
)
from repro.sim.stochastic import (
    NULL_JITTER,
    RISK_OBJECTIVES,
    JitterSpec,
    MakespanDistribution,
    monte_carlo_timeline,
    parse_jitter_spec,
    perturb_stage_costs,
    replica_rng,
)

__all__ = [
    "NULL_JITTER",
    "RISK_OBJECTIVES",
    "JitterSpec",
    "MakespanDistribution",
    "monte_carlo_timeline",
    "parse_jitter_spec",
    "perturb_stage_costs",
    "replica_rng",
    "FastPathMismatchError",
    "cached_build_schedule",
    "clear_fastpath_caches",
    "critical_path_timeline",
    "evaluate_schedule",
    "fastpath_cache_info",
    "pipeline_lower_bound",
    "SimulationEngine",
    "SimEvent",
    "Stream",
    "StreamKind",
    "LayerCosts",
    "CostModel",
    "IterationTimeline",
    "LayerTask",
    "simulate_iteration",
    "OpKind",
    "PipelineSchedule",
    "ScheduleKind",
    "StageOp",
    "build_schedule",
    "PipelineOpRecord",
    "PipelineTimeline",
    "StageCosts",
    "StagePeakMemory",
    "peak_activation_bytes",
    "simulate_pipeline",
    "stage_costs_from_iteration",
    "stage_peak_memory",
]
