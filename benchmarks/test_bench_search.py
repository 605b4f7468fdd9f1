"""End-to-end strategy-search speedup: critical-path fast path vs event engine.

Runs the ``pipeline_schedule="auto"`` search for the reference workload (7B,
256K tokens, 32 GPUs, a production-sized global batch of 1024 sequences, so
each PP replica schedules up to 256 micro-batches) through both evaluators:

* **legacy**: discrete-event engine, schedule- and strategy-level pruning
  disabled -- the search exactly as it existed before the fast path;
* **fast**: memoized critical-path evaluator with bound-based schedule
  pruning and the analytic per-strategy floor -- the default.

Asserts the acceptance criteria: the fast arm selects the *identical*
strategy with the *identical* iteration time (the fast path is bit-identical,
memoization and both pruning levels are conservative), prunes whole
parallelism points (strategies_pruned > 0), and is at least 5x faster
end-to-end.  Run with ``-s`` to see the table.
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.config import tokens
from repro.sim.fastpath import clear_fastpath_caches, fastpath_cache_info
from repro.systems.base import Workload
from repro.systems.megatron import MegatronSystem

MODEL = "7B"
SEQLEN_K = 256
GPUS = 32
GLOBAL_BATCH = 1024
REPEATS = 3
REQUIRED_SPEEDUP = 5.0


def timed_search(workload, **system_kwargs):
    """Best-of-N wall clock of one search arm, caches cold on every run."""
    best = float("inf")
    report = None
    for _ in range(REPEATS):
        clear_fastpath_caches()
        system = MegatronSystem(pipeline_schedule="auto", **system_kwargs)
        started = time.perf_counter()
        report = system.run(workload)
        best = min(best, time.perf_counter() - started)
    return best, report


def test_smoke_search_fastpath_speedup(benchmark):
    """Fast path: same strategy, same numbers, >= 5x faster search."""
    workload = Workload(MODEL, tokens(SEQLEN_K), GPUS, global_batch_samples=GLOBAL_BATCH)

    def compare():
        legacy_s, legacy = timed_search(
            workload, pipeline_engine="event", prune_schedule_sweep=False,
            prune_strategy_search=False,
        )
        fast_s, fast = timed_search(workload)
        return legacy_s, legacy, fast_s, fast, fastpath_cache_info()

    legacy_s, legacy, fast_s, fast, caches = run_once(benchmark, compare)

    print(f"\n=== auto strategy search: {MODEL}, {SEQLEN_K}K, {GPUS} GPUs, "
          f"global batch {GLOBAL_BATCH} ===")
    print(f"{'arm':<28} {'seconds':>9} {'simulated':>10} {'pruned':>7} "
          f"{'strategies':>11} {'floored':>8}")
    print(f"{'event engine (legacy)':<28} {legacy_s:>8.3f}s "
          f"{legacy.schedules_simulated:>10} {legacy.schedules_pruned:>7} "
          f"{legacy.strategies_evaluated:>11} {legacy.strategies_pruned:>8}")
    print(f"{'critical-path fast path':<28} {fast_s:>8.3f}s "
          f"{fast.schedules_simulated:>10} {fast.schedules_pruned:>7} "
          f"{fast.strategies_evaluated:>11} {fast.strategies_pruned:>8}")
    selected_schedule = (
        fast.pipeline_timeline.schedule.kind.value
        if fast.pipeline_timeline is not None else "no pipeline (PP=1)"
    )
    print(f"speedup {legacy_s / fast_s:.1f}x; selected: {fast.parallel.describe()} "
          f"({selected_schedule})")
    print(f"timeline cache: {caches['timelines'].hits} hits, "
          f"{caches['timelines'].misses} misses; program cache: "
          f"{caches['programs'].hits} hits, {caches['programs'].misses} misses")
    # Every evaluation runs a compiled program, and each schedule structure
    # compiles exactly once; no Monte-Carlo machinery leaks into the
    # jitter-free search.
    programs = caches["programs"]
    assert programs.misses == programs.currsize <= caches["schedules"].misses
    assert fast.makespan_distribution is None

    # Acceptance: unchanged selected strategy, unchanged numbers.
    assert fast.feasible and legacy.feasible
    assert fast.parallel == legacy.parallel
    assert fast.iteration_time_s == legacy.iteration_time_s
    assert fast.mfu == legacy.mfu
    # The sweep must be observably cheaper: pruning skipped candidates and
    # the memoized fast path evaluated no more schedules than the event arm.
    assert fast.schedules_pruned > 0
    assert fast.schedules_simulated <= legacy.schedules_simulated
    # Acceptance (PR 4): the analytic floor prunes whole parallelism points
    # before any schedule sweep, without changing the argmax asserted above.
    assert fast.strategies_pruned > 0
    assert fast.strategies_evaluated < legacy.strategies_evaluated
    # Acceptance: >= 5x end-to-end on the reference workload.
    assert legacy_s / fast_s >= REQUIRED_SPEEDUP


def test_smoke_search_fastpath_scales_with_batch(benchmark):
    """The fast-path advantage grows with the micro-batch count: the event
    engine pays O(events) per candidate where the fast path pays O(ops) with
    memoized structure -- doubling the global batch must not double the fast
    arm's search time as hard as it does the legacy arm's."""
    def sweep():
        rows = []
        for global_batch in (128, 512, 1024):
            workload = Workload(
                MODEL, tokens(SEQLEN_K), 16, global_batch_samples=global_batch,
            )
            legacy_s, _ = timed_search(
                workload, pipeline_engine="event", prune_schedule_sweep=False,
            )
            fast_s, _ = timed_search(workload)
            rows.append((global_batch, legacy_s, fast_s))
        return rows

    rows = run_once(benchmark, sweep)

    print(f"\n=== search cost vs global batch ({MODEL}, {SEQLEN_K}K, 16 GPUs) ===")
    print(f"{'batch':>6} {'legacy':>9} {'fast':>9} {'speedup':>8}")
    for global_batch, legacy_s, fast_s in rows:
        print(f"{global_batch:>6} {legacy_s:>8.3f}s {fast_s:>8.3f}s "
              f"{legacy_s / fast_s:>7.1f}x")
        assert fast_s <= legacy_s
    # The gap must not shrink as the schedules grow (0.8 tolerance: both
    # ratios are wall-clock measurements and CI runners are noisy).
    assert rows[-1][1] / rows[-1][2] > 0.8 * (rows[0][1] / rows[0][2])


FLEET_GLOBAL_BATCHES = (256, 512, 1024, 2048)
FLEET_WARM_FLOOR = 2.0
FLEET_REPEATS = 2


def test_smoke_fleet_warm_speedup(benchmark):
    """Fleet planning: warm >= 2x serial writing the cache, answers bit-identical.

    Every run starts truly cold -- the fast-path caches *and* the wave-order
    memo ``clear_fastpath_caches()`` leaves warm are cleared -- and runs the
    grid serially three ways: with no disk cache, writing a fresh disk cache,
    and warm against the payload the first writing run persisted.  The win
    comes from the persisted caches (schedule structures, timelines, stage
    profiles reused across runs), so the floor holds on any core count.
    """
    import tempfile
    from pathlib import Path

    from repro.fleet import WorkloadGrid, plan_fleet
    from repro.sim.schedules import _selected_wave_order

    grid = WorkloadGrid.from_spec({
        "axes": {"model": [MODEL], "seqlen_k": [SEQLEN_K], "gpus": [16],
                 "global_batch": list(FLEET_GLOBAL_BATCHES)},
    })

    def drive():
        seconds = {"no_cache": float("inf"), "writing": float("inf"),
                   "warm": float("inf")}
        reports = {}

        def timed(arm, **kwargs):
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
            for repeat in range(FLEET_REPEATS):
                timed("no_cache", use_disk_cache=False)
                timed("writing", cache_dir=warm_dir if repeat == 0
                      else Path(root) / f"writing-{repeat}")
            for _ in range(FLEET_REPEATS):
                timed("warm", cache_dir=warm_dir)
            clear_fastpath_caches()
            standalone = [
                grid.search.build_system().run(point.workload())
                for point in grid.points
            ]
        return seconds, reports, standalone

    seconds, reports, standalone = run_once(benchmark, drive)
    warm = reports["warm"]

    print(f"\n=== fleet planning: {len(grid.points)} points "
          f"({MODEL}, {SEQLEN_K}K, 16 GPUs) ===")
    print(f"no cache {seconds['no_cache']:.2f}s, writing the cache "
          f"{seconds['writing']:.2f}s, warm {seconds['warm']:.2f}s "
          f"({seconds['writing'] / seconds['warm']:.1f}x warm, "
          f"{warm.loaded_entries} cache entries loaded)")

    # Every run reproduces the standalone single-workload answers exactly.
    for index, reference in enumerate(standalone):
        for report in reports.values():
            outcome = report.outcomes[index]
            assert outcome.ok
            assert outcome.report.parallel == reference.parallel
            assert outcome.report.iteration_time_s == reference.iteration_time_s
    # The disk cache actually primed the warm run, and the warmth pays.
    assert reports["no_cache"].loaded_entries == reports["no_cache"].saved_entries == 0
    assert warm.loaded_entries > 0
    assert seconds["writing"] / seconds["warm"] >= FLEET_WARM_FLOOR
