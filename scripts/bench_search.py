#!/usr/bin/env python
"""Benchmark the ``pipeline_schedule="auto"`` strategy search: fast vs event.

Runs the same reference workload through four search configurations:

* **legacy** -- the discrete-event engine with schedule-level *and*
  strategy-level pruning disabled (the search exactly as it existed before
  the critical-path fast path and the analytic strategy floor);
* **fast** -- the default configuration: memoized critical-path evaluator,
  bound-based schedule pruning, and strategy-level pruning (whole
  parallelism points skipped via the FLOPs/bandwidth/serial-overhead floor
  before any schedule sweep);
* **stochastic-disabled** -- the fast configuration with the stochastic
  layer constructed but inert (``jitter="0"``); guards that carrying the
  Monte-Carlo machinery changes neither the selected strategy nor the
  iteration time nor a single schedule-cache hit/miss counter;
* **failures-disabled** -- the fast configuration with the failure layer
  constructed but inert (``failures="0"`` under a ``ttrain_p99`` objective,
  which collapses to deterministic scoring when the process is null); the
  same bit-for-bit guard as the stochastic arm.

A sixth arm benchmarks the **fleet planner** (``repro plan-fleet``): the same
small workload grid planned three ways, each run truly cold (the fast-path
caches *and* the wave-order memo cleared) -- with no disk cache, writing a
fresh disk cache, and warm against the payload a previous run persisted.
Every per-point strategy and iteration time must be bit-identical across the
three runs *and* to a standalone single-workload search, and the warm run
must be at least 2x faster than the run writing the cache.  The arm runs
last, alongside the Monte-Carlo arm, so its cache traffic never perturbs the
deterministic arms' counter guards.

A fifth arm benchmarks the **Monte-Carlo replica throughput** of the
stochastic layer on a fixed representative pipeline schedule (ZB-V, 4 stages,
64 micro-batches -- the search winner itself runs PP=1 and has no pipeline
schedule to replicate): the same ``monte_carlo_timeline`` call with the
batched sweep over the compiled :class:`ScheduleProgram` forced off
(``batch=False``, one scalar critical-path sweep per replica) and forced on
(``batch=True``, all replicas in one vectorized sweep).  The two
distributions must be bit-identical; the arm reports replicas/sec for both
paths.  This arm runs *last* so its program-cache traffic never perturbs the
deterministic arms' counter guards.

Writes ``BENCH_search.json`` with the wall-clocks, the schedule- and
strategy-level work counters (simulated / pruned / evaluated), the
schedule/timeline/program cache counters and the selected strategy of each
arm.  Exits non-zero when the fast path is slower than the event engine, when
the two arms disagree on the selected strategy or its iteration time, when
the reference search prunes no strategies, when the schedule-cache hit rate
collapses (hits below misses would mean the wave-ratio key component
fragmented the cache), when the batched stochastic path is not at least 3x
the scalar one, or when the batched and scalar distributions diverge by a
single bit -- the fast path must be a pure speedup, never a behaviour change.

Usage::

    PYTHONPATH=src python scripts/bench_search.py           # reference grid
    PYTHONPATH=src python scripts/bench_search.py --smoke   # CI-sized grid
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.config import tokens
from repro.sim.fastpath import (
    cached_build_schedule,
    clear_fastpath_caches,
    fastpath_cache_info,
)
from repro.sim.pipeline import StageCosts
from repro.sim.schedules import ScheduleKind
from repro.sim.stochastic import JitterSpec, monte_carlo_timeline
from repro.systems.base import TrainingReport, Workload
from repro.systems.megatron import MegatronSystem

#: The reference workload: a production-sized global batch makes the schedule
#: sweep (micro-batches per replica up to the low hundreds) the dominant
#: search cost, which is the regime the fast path exists for.
REFERENCE = {"model": "7B", "seqlen_k": 256, "gpus": 32, "global_batch": 1024}
SMOKE = {"model": "7B", "seqlen_k": 256, "gpus": 16, "global_batch": 128}

#: The Monte-Carlo arm's fixed schedule and noise model.  The reference
#: search's winner runs PP=1 (no pipeline schedule, nothing to replicate), so
#: the arm measures the replica throughput every PP>1 candidate pays during a
#: risk-adjusted search: a ZB-V pipeline with a deep micro-batch stream, all
#: transfer streams active, under a realistic mixed jitter spec.
MC_REPLICAS = 64
MC_STAGES = 4
MC_MICRO_BATCHES = 64

#: The fleet arm's grid: one production-sized workload swept over global
#: batches, so each point's schedule sweep is heavy enough for cache warmth
#: to decide the warm floor.
FLEET_GLOBAL_BATCHES = (256, 512, 1024, 2048)
FLEET_WARM_FLOOR = 2.0


def run_fleet_arm(spec: dict, repeats: int) -> dict:
    """Serial fleet planning: no disk cache vs writing the cache vs warm.

    Every run clears the fast-path caches and the wave-order memo first, so
    "cold" means cold.  Writing runs get a fresh cache directory each; the
    warm runs replan against the payload the first writing run persisted.
    All three must agree bit-for-bit with standalone single-workload searches.
    """
    import tempfile

    from repro.fleet import WorkloadGrid, plan_fleet
    from repro.sim.schedules import _selected_wave_order

    grid = WorkloadGrid.from_spec({
        "axes": {
            "model": [spec["model"]],
            "seqlen_k": [spec["seqlen_k"]],
            "gpus": [spec["gpus"]],
            "global_batch": list(FLEET_GLOBAL_BATCHES),
        },
    })
    seconds = {"no_cache": float("inf"), "writing": float("inf"),
               "warm": float("inf")}
    reports = {}

    def timed(arm: str, **kwargs) -> None:
        clear_fastpath_caches()
        _selected_wave_order.cache_clear()
        started = time.perf_counter()
        report = plan_fleet(grid, **kwargs)
        elapsed = time.perf_counter() - started
        if elapsed < seconds[arm]:
            seconds[arm] = elapsed
            reports[arm] = report

    with tempfile.TemporaryDirectory(prefix="bench-fleet-") as root:
        warm_dir = Path(root) / "warm"
        for repeat in range(repeats):
            timed("no_cache", use_disk_cache=False)
            timed("writing", cache_dir=warm_dir if repeat == 0
                  else Path(root) / f"writing-{repeat}")
        for _ in range(repeats):
            timed("warm", cache_dir=warm_dir)

    # Ground truth: standalone single-workload searches, cold caches.
    clear_fastpath_caches()
    bit_identical = True
    for index, point in enumerate(grid.points):
        standalone = grid.search.build_system().run(point.workload())
        for report in reports.values():
            outcome = report.outcomes[index]
            if (not outcome.ok
                    or outcome.report.parallel != standalone.parallel
                    or outcome.report.iteration_time_s
                    != standalone.iteration_time_s):
                bit_identical = False

    warm = seconds["warm"]
    return {
        "grid": {"model": spec["model"], "seqlen_k": spec["seqlen_k"],
                 "gpus": spec["gpus"],
                 "global_batches": list(FLEET_GLOBAL_BATCHES)},
        "points": len(grid.points),
        "wave_order_memo_cleared": True,
        "serial_no_cache_seconds": round(seconds["no_cache"], 4),
        "serial_writing_cache_seconds": round(seconds["writing"], 4),
        "serial_warm_seconds": round(warm, 4),
        "warm_speedup": round(seconds["writing"] / warm, 2),
        "warm_speedup_vs_no_cache": round(seconds["no_cache"] / warm, 2),
        "cache_entries_saved": reports["writing"].saved_entries,
        "cache_entries_loaded_warm": reports["warm"].loaded_entries,
        "bit_identical": bit_identical,
        "warnings_collated": len(reports["writing"].warnings),
        "cpu_count": os.cpu_count(),
    }


def run_monte_carlo_arm(repeats: int) -> dict:
    """Best-of-N replica throughput of the stochastic layer, scalar vs batched."""
    clear_fastpath_caches()
    schedule = cached_build_schedule(
        ScheduleKind.ZB_V, MC_STAGES, MC_MICRO_BATCHES, 2, None,
    )
    costs = StageCosts(
        forward_s=0.012, backward_s=0.024, recompute_s=0.004,
        p2p_bytes=64e6, offload_bytes=128e6, prefetch_bytes=128e6,
        backward_weight_s=0.012,
    )
    spec = JitterSpec(
        compute_sigma=0.08, straggler_prob=0.05, link_sigma=0.05,
        swap_sigma=0.05,
    )
    kwargs = dict(
        replicas=MC_REPLICAS, seed=0,
        p2p_bandwidth_bytes_per_s=25e9, p2p_latency_s=5e-6,
        pcie_bandwidth_bytes_per_s=16e9,
    )
    scalar_seconds = batched_seconds = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        scalar = monte_carlo_timeline(schedule, costs, spec, batch=False, **kwargs)
        scalar_seconds = min(scalar_seconds, time.perf_counter() - started)
        started = time.perf_counter()
        batched = monte_carlo_timeline(schedule, costs, spec, batch=True, **kwargs)
        batched_seconds = min(batched_seconds, time.perf_counter() - started)
    programs = fastpath_cache_info()["programs"]
    speedup = scalar_seconds / batched_seconds if batched_seconds > 0 else float("inf")
    return {
        "schedule": f"zb_v p={MC_STAGES} m={MC_MICRO_BATCHES}",
        "replicas": MC_REPLICAS,
        "scalar_seconds": round(scalar_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "scalar_replicas_per_s": round(MC_REPLICAS / scalar_seconds, 1),
        "batched_replicas_per_s": round(MC_REPLICAS / batched_seconds, 1),
        "speedup": round(speedup, 2),
        "bit_identical": scalar == batched,
        "program_cache": {"hits": programs.hits, "misses": programs.misses},
    }


def run_search(workload: Workload, repeats: int, **system_kwargs):
    """Best-of-N wall clock of one search arm, caches cold on every run."""
    best_seconds = float("inf")
    report: TrainingReport
    for _ in range(repeats):
        clear_fastpath_caches()
        system = MegatronSystem(pipeline_schedule="auto", **system_kwargs)
        started = time.perf_counter()
        report = system.run(workload)
        best_seconds = min(best_seconds, time.perf_counter() - started)
    return best_seconds, report


def arm_payload(seconds: float, report: TrainingReport) -> dict:
    return {
        "seconds": round(seconds, 4),
        "feasible": report.feasible,
        "strategy": report.parallel.describe() if report.parallel else None,
        "iteration_time_s": report.iteration_time_s,
        "schedules_simulated": report.schedules_simulated,
        "schedules_pruned": report.schedules_pruned,
        "strategies_evaluated": report.strategies_evaluated,
        "strategies_pruned": report.strategies_pruned,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized grid (seconds, not tens of seconds)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="take the best of N runs per arm")
    parser.add_argument("--output", default=None,
                        help="output path (default: BENCH_search.json, or "
                             "BENCH_search_smoke.json with --smoke so smoke "
                             "runs never churn the committed reference result)")
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = "BENCH_search_smoke.json" if args.smoke else "BENCH_search.json"

    spec = SMOKE if args.smoke else REFERENCE
    workload = Workload(
        spec["model"], tokens(spec["seqlen_k"]), spec["gpus"],
        global_batch_samples=spec["global_batch"],
    )

    legacy_seconds, legacy = run_search(
        workload, args.repeats,
        pipeline_engine="event", prune_schedule_sweep=False,
        prune_strategy_search=False,
    )
    fast_seconds, fast = run_search(workload, args.repeats)
    caches = fastpath_cache_info()
    # Third arm: the stochastic layer present but disabled (null jitter).
    # The Monte-Carlo machinery must be invisible when off -- same strategy,
    # same iteration time, and the exact same cache traffic as the fast arm.
    disabled_seconds, disabled = run_search(workload, args.repeats, jitter="0")
    disabled_caches = fastpath_cache_info()
    # Fourth arm: the failure layer present but disabled (null process) under
    # a time-to-train objective.  A null spec makes every ``ttrain_*``
    # objective collapse to the deterministic estimate, so the arm must match
    # the fast arm bit for bit -- strategy, iteration time, cache traffic.
    failures_seconds, failures_off = run_search(
        workload, args.repeats, failures="0", risk_objective="ttrain_p99")
    failures_caches = fastpath_cache_info()
    # Fifth and sixth arms last: their cache traffic must not leak into the
    # deterministic arms' bit-for-bit counter guards above.
    monte_carlo = run_monte_carlo_arm(args.repeats)
    fleet = run_fleet_arm(spec, args.repeats)

    speedup = legacy_seconds / fast_seconds if fast_seconds > 0 else float("inf")
    unchanged = (
        legacy.parallel == fast.parallel
        and legacy.iteration_time_s == fast.iteration_time_s
    )
    cache_counts = {
        name: {"hits": info.hits, "misses": info.misses}
        for name, info in caches.items()
    }
    disabled_cache_counts = {
        name: {"hits": info.hits, "misses": info.misses}
        for name, info in disabled_caches.items()
    }
    stochastic_inert = (
        disabled.parallel == fast.parallel
        and disabled.iteration_time_s == fast.iteration_time_s
        and disabled_cache_counts == cache_counts
    )
    failures_cache_counts = {
        name: {"hits": info.hits, "misses": info.misses}
        for name, info in failures_caches.items()
    }
    failures_inert = (
        failures_off.parallel == fast.parallel
        and failures_off.iteration_time_s == fast.iteration_time_s
        and failures_off.time_to_train is None
        and failures_cache_counts == cache_counts
    )
    payload = {
        "mode": "smoke" if args.smoke else "reference",
        "workload": spec,
        "legacy_event_engine": arm_payload(legacy_seconds, legacy),
        "fast_path": arm_payload(fast_seconds, fast),
        "stochastic_disabled": arm_payload(disabled_seconds, disabled),
        "failures_disabled": arm_payload(failures_seconds, failures_off),
        "monte_carlo": monte_carlo,
        "fleet": fleet,
        "speedup": round(speedup, 2),
        "selected_strategy_unchanged": unchanged,
        "stochastic_layer_inert_when_disabled": stochastic_inert,
        "failure_layer_inert_when_disabled": failures_inert,
        "fastpath_caches": cache_counts,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")

    print(f"search benchmark ({payload['mode']}): {spec['model']} "
          f"{spec['seqlen_k']}K x {spec['gpus']} GPUs, "
          f"global batch {spec['global_batch']}")
    print(f"  legacy (event, no pruning): {legacy_seconds:.3f}s "
          f"({legacy.strategies_evaluated} strategies evaluated, "
          f"{legacy.schedules_simulated} schedules simulated)")
    print(f"  fast   (critical path)    : {fast_seconds:.3f}s "
          f"({fast.strategies_evaluated} strategies evaluated, "
          f"{fast.strategies_pruned} pruned by the analytic floor; "
          f"{fast.schedules_simulated} schedules simulated, "
          f"{fast.schedules_pruned} pruned)")
    print(f"  speedup {speedup:.1f}x, strategy unchanged: {unchanged}")
    print(f"  stochastic layer disabled arm: {disabled_seconds:.3f}s, "
          f"inert: {stochastic_inert}")
    print(f"  failure layer disabled arm: {failures_seconds:.3f}s, "
          f"inert: {failures_inert}")
    print(f"  caches: schedules {cache_counts['schedules']['hits']}/"
          f"{cache_counts['schedules']['misses']}, timelines "
          f"{cache_counts['timelines']['hits']}/"
          f"{cache_counts['timelines']['misses']}, programs "
          f"{cache_counts['programs']['hits']}/"
          f"{cache_counts['programs']['misses']} (hits/misses)")
    print(f"  monte-carlo ({monte_carlo['schedule']}, "
          f"{monte_carlo['replicas']} replicas): scalar "
          f"{monte_carlo['scalar_replicas_per_s']}/s, batched "
          f"{monte_carlo['batched_replicas_per_s']}/s, speedup "
          f"{monte_carlo['speedup']}x, bit-identical: "
          f"{monte_carlo['bit_identical']}")
    print(f"  fleet ({fleet['points']} points, serial): no cache "
          f"{fleet['serial_no_cache_seconds']:.2f}s, writing the cache "
          f"{fleet['serial_writing_cache_seconds']:.2f}s, warm "
          f"{fleet['serial_warm_seconds']:.2f}s "
          f"({fleet['warm_speedup']}x warm speedup, "
          f"{fleet['cache_entries_loaded_warm']} cache entries loaded), "
          f"bit-identical: {fleet['bit_identical']}")
    print(f"  wrote {args.output}")

    if not unchanged:
        print("FAIL: fast path changed the selected strategy", file=sys.stderr)
        return 1
    if not stochastic_inert:
        print("FAIL: the disabled stochastic layer changed the search "
              "(strategy, iteration time, or schedule-cache hit/miss "
              "counters differ from the fast arm)", file=sys.stderr)
        return 1
    if not failures_inert:
        print("FAIL: the disabled failure layer changed the search "
              "(strategy, iteration time, time-to-train report, or "
              "schedule-cache hit/miss counters differ from the fast arm)",
              file=sys.stderr)
        return 1
    if fast_seconds > legacy_seconds:
        print("FAIL: fast path slower than the event engine", file=sys.stderr)
        return 1
    if fast.strategies_pruned <= 0:
        print("FAIL: the analytic strategy floor pruned nothing", file=sys.stderr)
        return 1
    schedules = caches["schedules"]
    if schedules.hits < schedules.misses:
        print("FAIL: schedule-cache hits collapsed under the cache keys "
              f"(hits {schedules.hits} < misses {schedules.misses}) -- the "
              "wave-ratio key component is fragmenting the cache",
              file=sys.stderr)
        return 1
    if not monte_carlo["bit_identical"]:
        print("FAIL: batched Monte-Carlo distribution diverged from the "
              "scalar per-replica loop", file=sys.stderr)
        return 1
    if monte_carlo["speedup"] < 3.0:
        print("FAIL: batched stochastic path is below 3x the scalar one "
              f"(got {monte_carlo['speedup']}x)", file=sys.stderr)
        return 1
    if not fleet["bit_identical"]:
        print("FAIL: a fleet run (no cache, writing the cache or warm) "
              "diverged from the standalone single-workload search",
              file=sys.stderr)
        return 1
    if fleet["warm_speedup"] < FLEET_WARM_FLOOR:
        print("FAIL: warm fleet planning is below "
              f"{FLEET_WARM_FLOOR}x the run writing the cache "
              f"(got {fleet['warm_speedup']}x)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
