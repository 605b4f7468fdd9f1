"""Pipeline-schedule ablation: bubble fraction and per-stage memory.

Sweeps GPipe / 1F1B / interleaved-1F1B / ZB-H1 / ZB-V over a grid of
micro-batch counts for a fixed model/cluster configuration (7B, 256K tokens,
8 GPUs, TP=2 x PP=4) with heterogeneous per-stage costs (uneven layer
partition, embedding-heavy stage 0, classifier-heavy last stage) and
reports, per schedule:

* simulated iteration time and measured bubble fraction vs the analytic
  ``(p - 1) / (v m + p - 1)`` bound -- which ZB-H1 must strictly undercut;
* per-stage peak activation memory (in-flight micro-batches), with and
  without MEMO's token-wise swapping.

ZB-V at 256K tokens illustrates the regime dependence of the V placement:
attention dominates, so the deferable grad-weight share is tiny (~0.07) and
the win comes from halving the pipeline fill -- decisive at small
micro-batch counts, amortised away (and overtaken by the wavefront's
steady-state drift) once ``m`` is large.  The strategy search's auto sweep
picks the per-regime winner, which is the point of having all five kinds as
candidates.

Run with ``-s`` to see the tables; pytest-benchmark records the sweep time.
"""

from conftest import run_once

from repro.config import GiB, tokens
from repro.parallel.comm_model import pipeline_p2p_bytes_per_micro_batch
from repro.parallel.memory_model import estimate_memory
from repro.parallel.search import resolve_schedule
from repro.parallel.strategy import OffloadMode, ParallelismConfig, RecomputeMode
from repro.sim.pipeline import simulate_pipeline, stage_peak_memory
from repro.sim.schedules import ScheduleKind
from repro.systems.base import Workload
from repro.systems.memo import MemoSystem

MODEL = "7B"
SEQLEN_K = 256
GPUS = 8
SCHEDULES = (
    (ScheduleKind.GPIPE, 1),
    (ScheduleKind.ONE_F_ONE_B, 1),
    (ScheduleKind.INTERLEAVED, 2),
    (ScheduleKind.ZB_H1, 1),
    (ScheduleKind.ZB_V, 2),
)


def build_case(offload: OffloadMode, recompute: RecomputeMode, micro_batches: int):
    """Workload-builder: lower one (model, cluster, parallelism) point."""
    parallel = ParallelismConfig(
        tensor_parallel=2, pipeline_parallel=4, data_parallel=1,
        recompute=recompute, offload=offload, micro_batches=micro_batches,
    )
    workload = Workload(MODEL, tokens(SEQLEN_K), GPUS)
    system = MemoSystem()
    execution = system.stage_execution(workload, parallel)
    memory = estimate_memory(
        model=workload.model, cluster=workload.cluster(), parallel=parallel,
        sequence_length=workload.sequence_length, batch_size=workload.micro_batch_size,
        offload_alpha=execution.effective_alpha or 0.0,
    )
    p2p_bytes = pipeline_p2p_bytes_per_micro_batch(
        workload.model, parallel, workload.sequence_length,
    )
    return parallel, execution, memory, p2p_bytes


def simulate_case(parallel, execution, memory, p2p_bytes, kind, chunks, micro_batches):
    workload = Workload(MODEL, tokens(SEQLEN_K), GPUS)
    schedule = resolve_schedule(
        parallel, kind, micro_batches, chunks, num_layers=workload.model.num_layers,
    )
    per_mb = memory.skeletal_activation_bytes + memory.rounding_buffer_bytes
    costs = execution.stage_costs_for_shape(
        schedule.num_virtual_stages, schedule.kind.splits_backward, workload.sequence_length,
        activation_bytes_per_micro_batch=per_mb,
        p2p_bytes=p2p_bytes,
    )
    p2p_time = execution.cost_model.pipeline_p2p_time(p2p_bytes)
    timeline = simulate_pipeline(
        schedule, costs,
        p2p_bandwidth_bytes_per_s=p2p_bytes / p2p_time if p2p_time > 0 else float("inf"),
        pcie_bandwidth_bytes_per_s=execution.pcie_bandwidth_bytes_per_s,
    )
    stages = stage_peak_memory(
        schedule, costs,
        base_bytes=memory.model_state_bytes,
        transient_peak_bytes=memory.transient_bytes + memory.classifier_bytes,
    )
    return schedule, timeline, stages


def test_smoke_pipeline_bubble_across_schedules(benchmark):
    """Measured bubble must track the analytic bound across the m-grid."""

    def sweep():
        parallel, execution, memory, p2p = build_case(
            OffloadMode.NONE, RecomputeMode.NONE, micro_batches=16,
        )
        rows = []
        for micro_batches in (4, 8, 16):
            for kind, chunks in SCHEDULES:
                schedule, timeline, _ = simulate_case(
                    parallel, execution, memory, p2p, kind, chunks, micro_batches,
                )
                rows.append((kind.value, micro_batches, schedule, timeline))
        return rows

    rows = run_once(benchmark, sweep)

    print("\n=== Pipeline bubble: 7B, 256K tokens, TP=2 x PP=4, no swap, "
          "heterogeneous stages ===")
    print(f"{'schedule':<13} {'m':>3} {'total':>9} {'bubble':>8} {'analytic':>9}")
    for name, micro_batches, schedule, timeline in rows:
        print(f"{name:<13} {micro_batches:>3} {timeline.total_s:>8.1f}s "
              f"{timeline.bubble_fraction:>8.3f} {timeline.analytic_bubble_fraction:>9.3f}")
        if schedule.kind is ScheduleKind.ZB_V:
            # The V wavefront is tuned for W ~ B; at 256K the W share is
            # ~0.07, so only the fill-halving is guaranteed here -- the
            # per-m comparisons below assert where it wins.
            continue
        if schedule.kind.splits_backward:
            # Zero-bubble: the measured bubble must undercut the 1F1B bound.
            assert timeline.bubble_fraction < timeline.analytic_bubble_fraction
        else:
            # Mild heterogeneity (embedding/classifier extras) keeps fused
            # schedules near the uniform-stage analytic bound: within 10%
            # relative, or 1.5 bubble points absolute once the bound itself
            # gets small (interleaved at large m).
            deviation = abs(timeline.bubble_fraction - timeline.analytic_bubble_fraction)
            assert (
                deviation <= 0.10 * timeline.analytic_bubble_fraction
                or deviation <= 0.015
            )
    by_key = {(name, m): t for name, m, _, t in rows}
    for micro_batches in (4, 8, 16):
        assert (
            by_key[("interleaved", micro_batches)].bubble_fraction
            < by_key[("1f1b", micro_batches)].bubble_fraction
        )
        # Acceptance: ZB-H1 strictly beats 1F1B on bubble and total time.
        assert (
            by_key[("zb-h1", micro_batches)].bubble_fraction
            < by_key[("1f1b", micro_batches)].bubble_fraction
        )
        assert (
            by_key[("zb-h1", micro_batches)].total_s
            < by_key[("1f1b", micro_batches)].total_s
        )
    assert by_key[("1f1b", 16)].bubble_fraction < by_key[("1f1b", 4)].bubble_fraction
    # ZB-V: the halved fill dominates while the pipeline is fill-bound --
    # at 256K (W share ~0.07) it beats both 1F1B and ZB-H1 for small m; the
    # steady state overtakes the fill advantage at m=16 (documented
    # crossover, which is why the auto sweep keeps all candidates).
    for micro_batches in (4, 8):
        assert (
            by_key[("zb-v", micro_batches)].total_s
            < by_key[("1f1b", micro_batches)].total_s
        )
    assert by_key[("zb-v", 4)].total_s < by_key[("zb-h1", 4)].total_s


def test_smoke_pipeline_stage_memory(benchmark):
    """1F1B stage memory obeys the min(m, p) bound; swapping collapses it."""

    def sweep():
        results = {}
        for label, offload, recompute in (
            ("resident", OffloadMode.NONE, RecomputeMode.NONE),
            ("token-wise swap", OffloadMode.TOKEN_WISE, RecomputeMode.TOKEN_WISE),
        ):
            parallel, execution, memory, p2p = build_case(offload, recompute, 8)
            per_schedule = {}
            for kind, chunks in SCHEDULES:
                per_schedule[kind.value] = simulate_case(
                    parallel, execution, memory, p2p, kind, chunks, 8,
                )
            results[label] = (memory, per_schedule)
        return results

    results = run_once(benchmark, sweep)

    print("\n=== Per-stage peak memory: 7B, 256K tokens, TP=2 x PP=4, m=8 ===")
    for label, (memory, per_schedule) in results.items():
        per_mb = (memory.skeletal_activation_bytes + memory.rounding_buffer_bytes)
        print(f"\n--- {label} (per-micro-batch activations "
              f"{per_mb / GiB:.2f} GiB/stage) ---")
        for name, (schedule, _, stages) in per_schedule.items():
            peaks = ", ".join(f"{stage.total_bytes / GiB:7.1f}" for stage in stages)
            print(f"{name:<13} in-flight {schedule.peak_in_flight()}  peaks [{peaks}] GiB")
            if name == "1f1b":
                bound = min(8, schedule.num_stages) * per_mb
                for stage in stages:
                    assert stage.activation_bytes <= bound + 1e-6
        one_f = per_schedule["1f1b"][2]
        gpipe = per_schedule["gpipe"][2]
        assert gpipe[0].total_bytes >= one_f[0].total_bytes
        # ZB-H1 keeps 1F1B's activation bound on stage 0 (its W ops run
        # fused there); later stages may add bounded weight-grad stashes.
        zb = per_schedule["zb-h1"][2]
        assert zb[0].activation_bytes <= one_f[0].activation_bytes * 1.001
        # ZB-V: the wavefront's live cap keeps every rank at <= 2p chunk
        # passes (each pinning half a micro-batch), i.e. no rank exceeds
        # 1F1B's worst-rank activation footprint of min(p, m) micro-batches.
        zbv_schedule = per_schedule["zb-v"][0]
        assert all(
            peak <= 2 * min(zbv_schedule.num_stages, 8)
            for peak in zbv_schedule.peak_in_flight()
        )

    resident_stage0 = results["resident"][1]["1f1b"][2][0]
    swapped_stage0 = results["token-wise swap"][1]["1f1b"][2][0]
    print(f"\nswap shrinks 1F1B stage-0 peak "
          f"{resident_stage0.total_bytes / GiB:.1f} GiB -> "
          f"{swapped_stage0.total_bytes / GiB:.1f} GiB "
          f"(activations {resident_stage0.activation_bytes / GiB:.1f} -> "
          f"{swapped_stage0.activation_bytes / GiB:.1f} GiB)")
    assert swapped_stage0.total_bytes < resident_stage0.total_bytes
    # Token-wise swapping keeps only the rounding-buffer share of each
    # in-flight micro-batch on the GPU.
    assert swapped_stage0.activation_bytes < 0.3 * resident_stage0.activation_bytes
