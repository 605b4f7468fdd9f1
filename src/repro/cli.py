"""Command-line interface for the MEMO reproduction.

Usage::

    python -m repro.cli estimate --model 7B --gpus 8 --seqlen-k 1024
    python -m repro.cli plan     --model 7B --gpus 8 --seqlen-k 256 --tp 4 --cp 2
    python -m repro.cli sim-pipeline --model 7B --gpus 8 --seqlen-k 256 --pp 4 \
        --schedule 1f1b --micro-batches 8
    python -m repro.cli table3   --models 7B --seqlens-k 64,256,1024
    python -m repro.cli table4
    python -m repro.cli table5
    python -m repro.cli figure1
    python -m repro.cli figure6
    python -m repro.cli figure11a
    python -m repro.cli convergence
    python -m repro.cli plan-fleet --grid examples/fleet_grid.json

Each experiment subcommand prints the regenerated table or an ASCII rendering
of the figure's series; ``plan-fleet`` emits a machine-readable JSON report.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from typing import List, Optional, Sequence

from repro.config import GiB, tokens
from repro.core.framework import MemoFramework
from repro.parallel.comm_model import pipeline_p2p_bytes_per_micro_batch
from repro.parallel.search import (
    PIPELINE_ENGINES,
    SearchConfig,
    build_candidate_schedule,
    resolve_schedule_shape,
    score_candidate,
)
from repro.parallel.strategy import OffloadMode, ParallelismConfig, RecomputeMode
from repro.sim.pipeline import (
    StageCosts,
    stage_costs_from_iteration,
    stage_peak_memory,
)
from repro.sim.failures import FailureSpec, TTRAIN_OBJECTIVES
from repro.sim.schedules import ScheduleKind
from repro.sim.stochastic import RISK_OBJECTIVES
from repro.experiments.figure1 import crossover_sequence_length_k, run_figure1a, run_figure1b
from repro.experiments.figure6 import run_figure6
from repro.experiments.figure11 import max_loss_divergence, run_figure11a, run_figure11d
from repro.experiments.plotting import ascii_plot, sparkline
from repro.experiments.table3 import TABLE3_SEQUENCE_LENGTHS_K, TABLE3_WORKLOADS, run_table3
from repro.experiments.table4 import run_table4
from repro.experiments.table5 import run_table5
from repro.systems.base import Workload
from repro.systems.metrics import format_wall_clock
from repro.systems.deepspeed import DeepSpeedSystem
from repro.systems.megatron import MegatronSystem
from repro.systems.memo import MemoSystem


def _parse_int_list(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _add_search_arguments(parser: argparse.ArgumentParser) -> None:
    """The search flags ``estimate`` and ``sim-pipeline`` share.

    Defaults come from :class:`SearchConfig`; :func:`_search_config` turns
    the parsed flags into one.
    """
    parser.add_argument("--jitter", default=None, metavar="SPEC",
                        help="seeded perturbation spec for Monte-Carlo robustness "
                             "scoring: a bare sigma ('0.05') or "
                             "'compute=S,link=S,swap=S,straggler=P[:ALPHA]'; '0' "
                             "disables")
    parser.add_argument("--replicas", type=int,
                        default=SearchConfig.monte_carlo_replicas,
                        help="Monte-Carlo draws per candidate")
    parser.add_argument("--seed", type=int, default=SearchConfig.monte_carlo_seed,
                        help="base seed of the per-replica generators; a fixed "
                             "seed reproduces the distribution bit for bit")
    parser.add_argument("--objective", default=SearchConfig.risk_objective,
                        choices=list(RISK_OBJECTIVES) + list(TTRAIN_OBJECTIVES),
                        help="statistic ranking the candidates: a makespan "
                             "objective (cvar = mean of the worst 5%%), or a "
                             "ttrain_* objective over the failure-adjusted "
                             "time-to-train distribution (requires --failures "
                             "or --mtbf)")
    parser.add_argument("--failures", default=None, metavar="SPEC",
                        help="failure-process spec for time-to-train costing: "
                             "'mtbf=<s>[,process=weibull[:shape]]"
                             "[,correlated=<prob>[:<node>]]"
                             "[,preempt=<every>[:<notice>]]'; '0' disables")
    parser.add_argument("--mtbf", type=float, default=None, metavar="SECONDS",
                        help="shorthand for --failures mtbf=<s>: per-rank "
                             "Poisson failures with this mean time between "
                             "failures")
    parser.add_argument("--recovery", default=None, metavar="SPEC",
                        help="checkpoint-restart recovery model: "
                             "'write=<s>,restart=<s>[,interval=<s>][,elastic]'; "
                             "interval defaults to the Young-Daly optimum")
    parser.add_argument("--target-iterations", type=int,
                        default=SearchConfig.target_iterations,
                        help="training-run length (iterations) the "
                             "time-to-train distribution is drawn over")
    parser.add_argument("--ci-halfwidth", type=float, default=None, metavar="SECONDS",
                        help="variance-aware budgeting: stop drawing replicas "
                             "once the 95%% CI half-width of the ranking "
                             "objective (in per-iteration seconds) is at or "
                             "below this; --replicas stays the hard cap")


def _search_config(args, **fields) -> Optional[SearchConfig]:
    """The run's :class:`SearchConfig` from the shared search flags.

    Any bad value prints one ``error:`` line and returns ``None`` (exit
    code 2).  Two rules are the CLI's own: ``--failures`` and ``--mtbf``
    are exclusive, and a ``ttrain_*`` objective needs an active failure
    spec (a system accepts it without one, scoring the base statistic).
    """
    try:
        if args.failures is not None and args.mtbf is not None:
            raise ValueError("--failures and --mtbf are mutually exclusive")
        config = SearchConfig(
            jitter=args.jitter,
            failures=args.failures if args.mtbf is None else FailureSpec(mtbf_s=args.mtbf),
            recovery=args.recovery,
            risk_objective=args.objective,
            monte_carlo_replicas=args.replicas,
            monte_carlo_seed=args.seed,
            target_iterations=args.target_iterations,
            monte_carlo_ci_halfwidth=args.ci_halfwidth,
            **fields,
        )
        if config.risk_objective in TTRAIN_OBJECTIVES and not config.failures_active:
            raise ValueError(f"--objective {args.objective} needs an active "
                             "--failures/--mtbf spec")
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return None
    return config


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="MEMO (SIGMOD 2025) reproduction experiments",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    estimate = subparsers.add_parser(
        "estimate", help="estimate MFU/TGS of the three systems on one workload",
    )
    estimate.add_argument("--model", default="7B", choices=["7B", "13B", "30B", "65B"])
    estimate.add_argument("--gpus", type=int, default=8)
    estimate.add_argument("--seqlen-k", type=int, default=256)
    _add_search_arguments(estimate)
    estimate.add_argument("--stability-replicas", type=int,
                          default=SearchConfig.stability_replicas,
                          help="re-run the strategy search under this many extra "
                               "seeds and report how often the deterministic winner "
                               "survives")
    estimate.add_argument("--pareto", action="store_true",
                          help="print each system's Pareto frontier over "
                               "(iteration time, peak GPU memory, host-offload "
                               "traffic); the fastest point is the selected "
                               "strategy")

    plan = subparsers.add_parser("plan", help="run the MEMO pipeline (profiler/planner/alpha)")
    plan.add_argument("--model", default="7B", choices=["7B", "13B", "30B", "65B"])
    plan.add_argument("--gpus", type=int, default=8)
    plan.add_argument("--seqlen-k", type=int, default=256)
    plan.add_argument("--tp", type=int, default=4)
    plan.add_argument("--cp", type=int, default=2)

    sim_pipeline = subparsers.add_parser(
        "sim-pipeline",
        help="simulate pipeline-parallel schedules (GPipe / 1F1B / interleaved / ZB-H1 / ZB-V)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "schedules:\n"
            "  gpipe        all forwards, then all backwards; keeps every "
            "micro-batch in flight\n"
            "  1f1b         warm-up forwards, steady 1F/1B, cool-down; "
            "min(p - rank, m) in flight\n"
            "  interleaved  Megatron virtual-pipeline 1F1B over --chunks "
            "chunks per rank; smaller bubble\n"
            "  zb-h1        zero-bubble: backward split into grad-input (B) "
            "and deferred grad-weight (W)\n"
            "               ops; 1F1B activation memory, W fills the bubble\n"
            "  zb-v         zero-bubble V placement: two chunks per rank, "
            "chunk 0 of rank r is virtual\n"
            "               stage r and chunk 1 is 2p-1-r, so the wave runs "
            "down the ranks and folds back\n"
            "               up -- rank 0 holds both the first and the loss "
            "stage, halving the pipeline\n"
            "               fill; B/W split per chunk, W ops drain into the "
            "wave's idle gaps.  Needs two\n"
            "               layers per rank; strongest when W ~ B (short "
            "contexts)\n"
            "  all          simulate each of the above and tabulate them"
        ),
    )
    sim_pipeline.add_argument("--model", default="7B", choices=["7B", "13B", "30B", "65B"])
    sim_pipeline.add_argument("--gpus", type=int, default=8)
    sim_pipeline.add_argument("--seqlen-k", type=int, default=256)
    sim_pipeline.add_argument("--pp", type=int, default=4, help="pipeline-parallel degree")
    sim_pipeline.add_argument("--tp", type=int, default=2, help="tensor-parallel degree")
    sim_pipeline.add_argument("--cp", type=int, default=1, help="context-parallel degree")
    sim_pipeline.add_argument("--micro-batches", type=int, default=8)
    sim_pipeline.add_argument("--chunks", type=int, default=2,
                              help="virtual chunks per rank for the interleaved schedule")
    sim_pipeline.add_argument("--schedule", default="all",
                              choices=["gpipe", "1f1b", "interleaved", "zb-h1", "zb-v", "all"])
    sim_pipeline.add_argument("--offload", default="none",
                              choices=["none", "token_wise", "full"],
                              help="activation swapping mode of every stage")
    sim_pipeline.add_argument("--recompute", default="none",
                              choices=["none", "full", "token_wise"])
    sim_pipeline.add_argument("--uniform-stages", action="store_true",
                              help="legacy uniform per-stage costs instead of the "
                                   "heterogeneous (embedding/classifier-aware) profile")
    sim_pipeline.add_argument("--engine", default=SearchConfig.pipeline_engine,
                              choices=PIPELINE_ENGINES,
                              help="schedule evaluator: memoized critical-path fast "
                                   "path (default) or the discrete-event engine; "
                                   "both report bit-identical numbers")
    sim_pipeline.add_argument("--validate", action="store_true",
                              help="cross-check the fast path against the event-engine "
                                   "oracle and fail on any divergence")
    _add_search_arguments(sim_pipeline)

    table3 = subparsers.add_parser("table3", help="regenerate Table 3 (or a subset)")
    table3.add_argument("--models", default="7B",
                        help="comma-separated subset of 7B,13B,30B,65B or 'all'")
    table3.add_argument("--seqlens-k", default="64,256,1024",
                        help="comma-separated sequence lengths in K tokens or 'all'")
    table3.add_argument("--metric", default="mfu", choices=["mfu", "tgs", "wall_clock"])

    subparsers.add_parser("table4", help="regenerate the Table 4 ablation")
    subparsers.add_parser("table5", help="regenerate the Table 5 alpha sweep")
    subparsers.add_parser("figure1", help="regenerate Figure 1 (fragmentation + crossover)")
    subparsers.add_parser("figure6", help="regenerate Figure 6 (attention share)")
    subparsers.add_parser("figure11a", help="regenerate Figure 11(a) (scalability)")

    convergence = subparsers.add_parser(
        "convergence", help="regenerate Figure 11(d) (loss-curve equivalence)",
    )
    convergence.add_argument("--iterations", type=int, default=25)

    plan_fleet = subparsers.add_parser(
        "plan-fleet",
        help="batch strategy search over a workload grid (disk-cached)",
    )
    plan_fleet.add_argument("--grid", required=True, metavar="FILE",
                            help="grid spec file (.json, or .yaml with PyYAML); "
                                 "see docs/fleet-planner.md for the grammar")
    plan_fleet.add_argument("--cache-dir", default=None, metavar="DIR",
                            help="cross-run cache directory "
                                 "(default ~/.cache/repro-planner)")
    plan_fleet.add_argument("--no-cache", action="store_true",
                            help="neither load nor save the disk cache")
    plan_fleet.add_argument("--output", default=None, metavar="FILE",
                            help="write the JSON report here instead of stdout")
    return parser


def _command_estimate(args) -> int:
    config = _search_config(args, stability_replicas=args.stability_replicas)
    if config is None:
        return 2
    try:
        workload = Workload(args.model, tokens(args.seqlen_k), args.gpus)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"Workload: {args.model} GPT, {args.seqlen_k}K tokens, {args.gpus} GPUs, "
          f"global batch {workload.global_batch_samples} sequences")
    if config.failures_active:
        print(f"Failure process {config.failures.describe()}; recovery "
              f"{config.recovery.describe()}; time-to-train objective "
              f"{config.ttrain_objective} over {config.target_iterations} iterations")
    print()
    if config.failures_active:
        header = (f"{'system':<14} {'MFU':>8} {'TGS':>10} {'wall clock':>12} "
                  f"{'ttrain':>10} {'slowdown':>9}  strategy")
    else:
        header = f"{'system':<14} {'MFU':>8} {'TGS':>10} {'wall clock':>12}  strategy"
    print(header)
    print("-" * len(header))
    for system in (DeepSpeedSystem(config=config), MegatronSystem(config=config),
                   MemoSystem(config=config)):
        report = system.run(workload)
        if report.feasible:
            if report.time_to_train is not None:
                ttd = report.time_to_train
                print(f"{report.system:<14} {report.mfu * 100:>7.2f}% "
                      f"{report.tgs:>10.1f} {report.wall_clock:>12} "
                      f"{ttd.statistic(config.base_objective):>9.0f}s "
                      f"{ttd.expected_slowdown:>8.3f}x  {report.parallel.describe()}")
            else:
                print(f"{report.system:<14} {report.mfu * 100:>7.2f}% "
                      f"{report.tgs:>10.1f} "
                      f"{report.wall_clock:>12}  {report.parallel.describe()}")
            if report.selection_stability is not None:
                stability = report.selection_stability
                print(f"{'':<14}   selection stability: {stability.stability:.0%} of "
                      f"{len(stability.selections)} seeds keep the "
                      f"deterministic winner")
            if args.pareto and report.pareto_frontier is not None:
                frontier = report.pareto_frontier
                print(f"{'':<14}   pareto frontier "
                      f"({len(frontier)} non-dominated strategies):")
                print(f"{'':<14}   {'wall clock':>12} {'GPU mem':>9} "
                      f"{'host traffic':>12}  strategy")
                for point in frontier:
                    marker = "*" if point.is_winner else " "
                    print(f"{'':<14}   {format_wall_clock(point.iteration_time_s):>12} "
                          f"{point.peak_memory_bytes / GiB:>8.1f}G "
                          f"{point.host_offload_bytes / GiB:>11.1f}G "
                          f"{marker} {point.parallel.describe()}")
        else:
            print(f"{report.system:<14} {report.wall_clock:>8}")
    return 0


def _command_plan(args) -> int:
    framework = MemoFramework.for_workload(
        args.model, tokens(args.seqlen_k), args.gpus,
        tensor_parallel=args.tp, context_parallel=args.cp, use_exact_planner=False,
    )
    plan = framework.prepare()
    result = framework.execute(plan)
    print(f"MEMO plan for {args.model} at {args.seqlen_k}K on {args.gpus} GPUs "
          f"(TP={args.tp}, CP={args.cp})")
    print(f"  offload fraction alpha : {plan.schedule.alpha:.3f} "
          f"(bandwidth bound {plan.alpha.bandwidth_bound:.3f}, "
          f"CPU bound {plan.alpha.cpu_memory_bound:.3f})")
    print(f"  rounding buffers       : 2 x {plan.schedule.buffers.buffer_bytes / GiB:.2f} GiB")
    print(f"  planned transient peak : {plan.planning.total_peak_bytes / GiB:.2f} GiB "
          f"({len(plan.planning.plan)} tensors, solver {plan.planning.solver})")
    print(f"  host memory used       : {plan.schedule.host_bytes_used / GiB:.1f} GiB "
          f"of {plan.schedule.host_capacity_bytes / GiB:.1f} GiB")
    print(f"  iteration time         : {result.iteration_time_s:.2f} s "
          f"(stalls {result.stalls_s:.3f} s, overlap {result.overlap_efficiency:.1%})")
    return 0


def _validate_stage_costs(costs) -> Optional[str]:
    """Reject NaN / negative / zero per-stage costs before they reach the simulator.

    ``StageCosts`` itself rejects NaN and negatives at construction; the CLI
    additionally refuses zero forward/backward durations (a zero-cost stage
    makes every bubble fraction and wave ratio meaningless) and turns the
    failure into a clear per-stage message instead of a traceback.
    ``--uniform-stages`` hands in one ``StageCosts`` for every stage.
    """
    if isinstance(costs, StageCosts):
        costs = [costs]
    for index, stage in enumerate(costs):
        for name in ("forward_s", "backward_s"):
            value = getattr(stage, name)
            if not math.isfinite(value) or value <= 0:
                return (f"stage {index} has invalid {name}={value}; "
                        "per-stage costs must be finite and positive")
    return None


def _command_sim_pipeline(args) -> int:
    config = _search_config(args, pipeline_chunks=args.chunks, pipeline_engine=args.engine,
                            validate_pipeline=args.validate)
    if config is None:
        return 2
    try:
        workload = Workload(args.model, tokens(args.seqlen_k), args.gpus)
        # One replica until the degrees are known to be valid divisors.
        parallel = ParallelismConfig(
            tensor_parallel=args.tp,
            context_parallel=args.cp,
            pipeline_parallel=args.pp,
            recompute=RecomputeMode(args.recompute),
            offload=OffloadMode(args.offload),
            micro_batches=args.micro_batches,
        )
        model_parallel = args.tp * args.cp * args.pp
        if args.gpus % model_parallel != 0:
            raise ValueError(f"TP x CP x PP ({model_parallel}) must divide --gpus ({args.gpus})")
        parallel = replace(parallel, data_parallel=args.gpus // model_parallel)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    execution = MemoSystem().stage_execution(workload, parallel)
    memory = execution.base_memory
    p2p_bytes = pipeline_p2p_bytes_per_micro_batch(
        workload.model, parallel, workload.sequence_length, workload.micro_batch_size,
    )
    p2p_time = execution.cost_model.pipeline_p2p_time(p2p_bytes)

    print(f"Pipeline simulation: {args.model} GPT, {args.seqlen_k}K tokens, "
          f"{args.gpus} GPUs ({parallel.describe()})")
    print(f"  stages {args.pp}, micro-batches {args.micro_batches}, "
          f"per-stage forward {execution.forward_s * 1e3:.1f} ms, "
          f"backward {execution.backward_s * 1e3:.1f} ms, "
          f"P2P hop {p2p_time * 1e3:.2f} ms")
    if execution.swap_schedule is not None:
        print(f"  swap schedule alpha {execution.swap_schedule.alpha:.3f}, "
              f"offload {execution.swap_schedule.total_offload_bytes / GiB:.2f} GiB/stage/micro-batch")

    per_mb_activation = memory.skeletal_activation_bytes + memory.rounding_buffer_bytes

    def stage_costs_for(shape):
        kind, stages, _, chunks = shape
        if args.uniform_stages:
            return stage_costs_from_iteration(
                execution.timeline,
                p2p_bytes=p2p_bytes,
                num_chunks=chunks,
                activation_bytes=per_mb_activation,
                backward_weight_fraction=(
                    execution.layer_costs.backward_weight_share
                    if kind.splits_backward else None
                ),
            )
        return execution.stage_costs_for_shape(
            stages * chunks, kind.splits_backward, workload.sequence_length,
            activation_bytes_per_micro_batch=per_mb_activation,
            p2p_bytes=p2p_bytes,
        )

    names = (["gpipe", "1f1b", "interleaved", "zb-h1", "zb-v"]
             if args.schedule == "all" else [args.schedule])

    def resolve_named(name):
        """One named schedule's shape, or (None, reason) when unsatisfiable."""
        kind = ScheduleKind.from_name(name)
        try:
            # --chunks tunes interleaving only; zb-v's chunk count is
            # structural.  num_layers caps the chunks so every virtual chunk
            # holds a layer (and rejects a V placement the layer budget
            # cannot satisfy).
            shape = resolve_schedule_shape(
                parallel, kind, args.micro_batches,
                config.pipeline_chunks if kind is ScheduleKind.INTERLEAVED else 1,
                num_layers=workload.model.num_layers,
            )
        except ValueError as error:
            return None, str(error)
        return shape, None

    if not args.uniform_stages:
        profile = execution.cost_model.stage_cost_profile(
            workload.sequence_length, args.pp, layer_costs=execution.layer_costs,
        )
        # The table shows the B/W split, so lower via the split-backward
        # ZB-H1 schedule; fused schedules see the same forward/backward sums.
        costs = execution.stage_costs_for_shape(
            args.pp, ScheduleKind.ZB_H1.splits_backward, workload.sequence_length,
            activation_bytes_per_micro_batch=per_mb_activation,
        )
        print(f"\nPer-stage costs (uneven partition of {profile.total_layers} layers; "
              f"embedding on stage 0, classifier on stage {args.pp - 1}):")
        header = (f"{'stage':>5} {'layers':>7} {'forward':>10} {'backward':>10} "
                  f"{'grad-in B':>10} {'grad-wt W':>10} {'activation':>11}")
        print(header)
        print("-" * len(header))
        for index, stage in enumerate(costs):
            print(f"{index:>5} {profile.layers_per_stage[index]:>7} "
                  f"{stage.forward_s * 1e3:>8.1f}ms {stage.backward_s * 1e3:>8.1f}ms "
                  f"{stage.split_backward_input_s * 1e3:>8.1f}ms "
                  f"{stage.split_backward_weight_s * 1e3:>8.1f}ms "
                  f"{stage.activation_bytes / GiB:>7.2f} GiB")

        if "zb-v" in names:
            v_shape, _ = resolve_named("zb-v")
            if v_shape is not None:
                v_schedule = build_candidate_schedule(v_shape, stage_costs_for)
                v_profile = execution.cost_model.stage_cost_profile(
                    workload.sequence_length, v_schedule.num_virtual_stages,
                    layer_costs=execution.layer_costs,
                )
                v_costs = execution.stage_costs_for_shape(
                    v_schedule.num_virtual_stages, v_schedule.kind.splits_backward,
                    workload.sequence_length,
                    activation_bytes_per_micro_batch=per_mb_activation,
                )
                ranks = v_schedule.virtual_stage_ranks
                ratio = v_schedule.wave_ratio
                print(f"\nV-placement ({v_schedule.num_virtual_stages} virtual stages, "
                      f"2 chunks per rank; the wave runs down ranks "
                      f"0..{args.pp - 1} and folds back to rank 0):")
                print(f"  wave ratio F : B_input : W = {ratio.forward:g} : "
                      f"{ratio.backward_input:g} : {ratio.backward_weight:g} "
                      f"(quantised from per-virtual-stage costs)")
                header = (f"{'vstage':>6} {'rank':>5} {'layers':>7} {'forward':>10} "
                          f"{'grad-in B':>10} {'grad-wt W':>10}")
                print(header)
                print("-" * len(header))
                for index, stage in enumerate(v_costs):
                    print(f"{index:>6} {ranks[index]:>5} "
                          f"{v_profile.layers_per_stage[index]:>7} "
                          f"{stage.forward_s * 1e3:>8.1f}ms "
                          f"{stage.split_backward_input_s * 1e3:>8.1f}ms "
                          f"{stage.split_backward_weight_s * 1e3:>8.1f}ms")

    print()
    header = (f"{'schedule':<13} {'total':>9} {'bubble':>8} {'analytic':>9} "
              f"{'stage-0 peak':>13}  in-flight per stage")
    print(header)
    print("-" * len(header))

    p2p_bandwidth = p2p_bytes / p2p_time if p2p_time > 0 else float("inf")
    distributions = []  # (label, MakespanDistribution) rows of the robustness table
    ttrains = []  # (label, TimeToTrainDistribution) rows of the failure table
    for name in names:
        shape, reason = resolve_named(name)
        if shape is None:
            if args.schedule != "all":
                print(f"error: {reason}", file=sys.stderr)
                return 2
            print(f"{name:<13} (skipped: {reason})")
            continue
        schedule = build_candidate_schedule(shape, stage_costs_for)
        costs = stage_costs_for(shape)
        cost_error = _validate_stage_costs(costs)
        if cost_error is not None:
            print(f"error: {name}: {cost_error}", file=sys.stderr)
            return 2
        score = score_candidate(
            config, schedule, costs,
            p2p_bandwidth_bytes_per_s=p2p_bandwidth,
            pcie_bandwidth_bytes_per_s=execution.pcie_bandwidth_bytes_per_s,
            serial_s=0.0,
            num_ranks=args.gpus,
            gpus_per_node=workload.cluster().node.gpus_per_node,
        )
        timeline = score.timeline
        stages = stage_peak_memory(
            schedule, costs,
            base_bytes=memory.model_state_bytes,
            transient_peak_bytes=memory.transient_bytes + memory.classifier_bytes,
        )
        kind = ScheduleKind.from_name(name)
        label = name if schedule.kind is kind else f"{name}->{schedule.kind.value}"
        print(f"{label:<13} {timeline.total_s:>8.2f}s {timeline.bubble_fraction:>8.3f} "
              f"{timeline.analytic_bubble_fraction:>9.3f} "
              f"{stages[0].total_bytes / GiB:>9.2f} GiB  "
              f"{timeline.rank_peak_in_flight}")
        if score.distribution is not None:
            distributions.append((label, score.distribution))
        if score.time_to_train is not None:
            ttrains.append((label, score.time_to_train))

    if distributions:
        print(f"\nRobustness under jitter {config.jitter.describe()} "
              f"({config.monte_carlo_replicas} replicas, seed {config.monte_carlo_seed}; "
              f"every draw >= deterministic >= analytic bound):")
        header = (f"{'schedule':<13} {'det':>9} {'mean':>9} {'p50':>9} "
                  f"{'p95':>9} {'p99':>9} {'cvar':>9} {'bubble var':>11}")
        print(header)
        print("-" * len(header))
        for label, dist in distributions:
            print(f"{label:<13} {dist.deterministic_total_s:>8.2f}s "
                  f"{dist.mean_s:>8.2f}s {dist.p50_s:>8.2f}s "
                  f"{dist.p95_s:>8.2f}s {dist.p99_s:>8.2f}s "
                  f"{dist.cvar95_s:>8.2f}s {dist.bubble_variance:>11.5f}")
        if config.risk_objective in RISK_OBJECTIVES:
            objective = config.risk_objective
            winner = min(distributions, key=lambda row: row[1].score(objective))
            print(f"best by {objective}: {winner[0]} "
                  f"({winner[1].score(objective):.2f}s)")

    if ttrains:
        interval = config.recovery.interval_for(config.failures, args.gpus)
        interval_text = "inf" if math.isinf(interval) else f"{interval:.0f}s"
        print(f"\nTime-to-train under failures {config.failures.describe()} "
              f"(recovery {config.recovery.describe()}, checkpoint interval "
              f"{interval_text}, {config.target_iterations} iterations, "
              f"seed {config.monte_carlo_seed}):")
        header = (f"{'schedule':<13} {'ideal':>10} {'mean':>10} {'p50':>10} "
                  f"{'p99':>10} {'cvar':>10} {'interrupts':>11} {'slowdown':>9} "
                  f"{'draws':>6}")
        print(header)
        print("-" * len(header))
        for label, ttd in ttrains:
            print(f"{label:<13} {ttd.ideal_s:>9.1f}s {ttd.mean_s:>9.1f}s "
                  f"{ttd.p50_s:>9.1f}s {ttd.p99_s:>9.1f}s {ttd.cvar95_s:>9.1f}s "
                  f"{ttd.mean_failures:>11.1f} {ttd.expected_slowdown:>8.3f}x "
                  f"{len(ttd.samples):>6}")
        winner = min(ttrains, key=lambda row: row[1].score(config.ttrain_objective))
        print(f"best by {config.ttrain_objective}: {winner[0]} "
              f"({winner[1].statistic(config.base_objective):.1f}s "
              f"over the run)")
    return 0


def _command_table3(args) -> int:
    if args.models == "all":
        workloads = TABLE3_WORKLOADS
    else:
        names = [name.strip() for name in args.models.split(",")]
        workloads = [pair for pair in TABLE3_WORKLOADS if pair[0] in names]
    lengths = (
        TABLE3_SEQUENCE_LENGTHS_K if args.seqlens_k == "all" else _parse_int_list(args.seqlens_k)
    )
    result = run_table3(workloads=workloads, sequence_lengths_k=lengths)
    print(result.to_table(args.metric).render())
    print()
    print(f"average MFU: Memo {result.average_mfu('Memo'):.2%}, "
          f"Megatron-LM {result.average_mfu('Mega'):.2%}, "
          f"DeepSpeed {result.average_mfu('DS'):.2%}")
    return 0


def _command_table4(_args) -> int:
    print(run_table4().to_table().render())
    return 0


def _command_table5(_args) -> int:
    print(run_table5().to_table().render())
    return 0


def _command_figure1(_args) -> int:
    fragmentation = run_figure1a()
    print("Figure 1(a): caching-allocator fragmentation")
    print(f"  peak allocated {fragmentation.peak_allocated_gib:.1f} GiB, "
          f"peak reserved {fragmentation.peak_reserved_gib:.1f} GiB, "
          f"fragmentation under load {fragmentation.fragmentation_under_load_gib:.1f} GiB, "
          f"reorganisations {fragmentation.num_reorganizations}")
    curves = run_figure1b()
    print()
    print(ascii_plot(
        list(curves.values()), title="Figure 1(b): per-layer time vs sequence length",
        x_label="sequence length (K tokens)", y_label="seconds", height=16,
    ))
    print(f"\noffload fully overlaps compute from ~{crossover_sequence_length_k(curves)}K tokens")
    return 0


def _command_figure6(_args) -> int:
    curves = run_figure6()
    print(ascii_plot(
        [curves["attention_share"]],
        title="Figure 6: FlashAttention share of a layer's forward time",
        x_label="sequence length (K tokens)", y_label="share", height=14,
    ))
    return 0


def _command_figure11a(_args) -> int:
    series = run_figure11a(length_grid_k=[256 * i for i in range(1, 33)])
    print(ascii_plot(
        list(series.values()),
        title="Figure 11(a): longest supported sequence length (7B)",
        x_label="GPUs", y_label="K tokens", height=16,
    ))
    return 0


def _command_convergence(args) -> int:
    runs = run_figure11d(num_iterations=args.iterations)
    print("Figure 11(d): loss curves under different offload fractions\n")
    for label, run in runs.items():
        print(f"{label:<26} {sparkline(run.losses)}  final {run.final_loss:.4f}")
    print(f"\nmaximum divergence between curves: {max_loss_divergence(runs):.3e}")
    return 0


def _command_plan_fleet(args) -> int:
    from repro.fleet import GridSpecError, WorkloadGrid, plan_fleet

    try:
        grid = WorkloadGrid.from_file(args.grid)
    except FileNotFoundError:
        print(f"error: --grid: no such file: {args.grid}", file=sys.stderr)
        return 2
    except GridSpecError as error:
        print(f"error: --grid: {error}", file=sys.stderr)
        return 2

    def progress(outcome):
        status = "ok" if outcome.ok else "FAILED"
        print(f"[{status}] {outcome.point.label()} ({outcome.duration_s:.2f}s)",
              file=sys.stderr)

    report = plan_fleet(
        grid,
        cache_dir=args.cache_dir,
        use_disk_cache=not args.no_cache,
        progress=progress,
    )
    text = report.to_json()
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output} ({len(report.outcomes)} points, "
              f"{len(report.failed)} failed; cache loaded "
              f"{report.loaded_entries}, saved {report.saved_entries})",
              file=sys.stderr)
    else:
        print(text)
    return 1 if report.failed else 0


COMMANDS = {
    "estimate": _command_estimate,
    "plan": _command_plan,
    "sim-pipeline": _command_sim_pipeline,
    "table3": _command_table3,
    "table4": _command_table4,
    "table5": _command_table5,
    "figure1": _command_figure1,
    "figure6": _command_figure6,
    "figure11a": _command_figure11a,
    "convergence": _command_convergence,
    "plan-fleet": _command_plan_fleet,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
