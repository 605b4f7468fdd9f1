"""Planner benchmark: seeded closed-loop query workloads, checked answers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload memory_plan --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload memory_plan --seed 0 --record

One client issues one query at a time (closed loop) in a single process.  A
measured run repeats one *round* of queries for ``--seconds`` in
:data:`PASSES` passes, at least :data:`MIN_ROUNDS` times a pass.  In each
pass every session of the workload is one fresh process that sets up once
and runs its share of every round in a child forked from its set-up state,
so no in-process cache of the program carries over between rounds, and
each query reports its fastest round.  Set-up time is measured from each
process launch to its ``ready`` line, over at least :data:`SETUP_SAMPLES`
launches.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one round
untraced and the same round traced, checks that both give the same answers,
and prints the per-layer metrics plus the tracing overhead.  ``--record``
runs one round and stores its answer digests in ``answers/<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The other lines are
the human-readable report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import LAYERS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: Scratch directory for session specs, results, spans and fleet caches.
WORK_DIR = os.path.join(ROOT, ".perfbench-runs")
#: Fewest process launches whose set-up time a run takes the median of.
SETUP_SAMPLES = 5
#: Hard limit on one session process.
SESSION_TIMEOUT_S = 150.0
#: A tail percentile needs at least this many queries above it.
TAIL_MARGIN = 10
#: Fewest rounds of one pass; each query's latency is its best round.
MIN_ROUNDS = 1
#: Passes of a measured run, each launching the workload's sessions afresh.
#: One process can run slow throughout while the machine is not, so every
#: query takes its best round over several processes.
PASSES = 8

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_p50_s": "s",
    "query_tail_s": "s",
    "throughput_qps": "1/s",
    "peak_rss_mib": "MiB",
}


class SessionError(RuntimeError):
    """A session process failed; the run reports no result."""


def run_session(workload: str, session: dict, trace: bool, tag: str, rounds: int,
                seconds: float = 0.0, setup_only: bool = False) -> dict:
    """Launch one session process running at least ``rounds`` rounds and
    starting more for ``seconds``; return its result plus ``setup_s``."""
    spec_path = os.path.join(WORK_DIR, f"{tag}.spec.json")
    result_path = os.path.join(WORK_DIR, f"{tag}.result.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "session": session, "trace": trace,
                   "rounds": rounds, "seconds": seconds, "setup_only": setup_only}, handle)
    with open(os.path.join(WORK_DIR, f"{tag}.stderr"), "w+", encoding="utf-8") as stderr:
        launched = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "session.py"), spec_path, result_path],
            stdout=subprocess.PIPE, stderr=stderr, text=True, cwd=ROOT,
            # One string-hash layout for every session of every run.
            env=dict(os.environ, PYTHONHASHSEED="0"),
        )
        try:
            ready = process.stdout.readline()
            setup_s = time.perf_counter() - launched
            process.communicate(timeout=SESSION_TIMEOUT_S)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        if ready.strip() != "ready" or process.returncode != 0:
            stderr.seek(0)
            raise SessionError(f"session {tag} failed:\n{stderr.read()[-4000:]}")
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    result["setup_s"] = setup_s
    return result


def run_rounds(name: str, seed: int, trace: bool, tag: str, count: int,
               seconds: float = 0.0, passes: int = 1) -> Tuple[List[List[dict]], List[dict]]:
    """Run ``passes`` passes, each running every session of the workload
    once, in order, each a fresh process.

    In each pass the first session runs at least ``count`` rounds and starts
    more for its share of ``seconds``; every later session runs as many
    rounds as it did.  Return, per round, its part of each session, and the
    session results.
    """
    plan = WORKLOADS[name].rounds(seed)
    rounds: List[List[dict]] = []
    sessions: List[dict] = []
    for pass_index in range(passes):
        cache_dir = os.path.join(WORK_DIR, f"{tag}-p{pass_index}-cache")
        results: List[dict] = []
        for position, session in enumerate(plan):
            if session.get("cache"):
                session = dict(session, cache_dir=cache_dir)
            if results:
                least, share = len(results[0]["rounds"]), 0.0
            else:
                least, share = count, seconds / passes / len(plan)
            results.append(run_session(
                name, session, trace, f"{tag}-p{pass_index}-s{position}", least, share))
        shutil.rmtree(cache_dir, ignore_errors=True)
        rounds.extend(list(parts) for parts in zip(*(result["rounds"] for result in results)))
        sessions.extend(results)
    return rounds, sessions


def nearest_rank(values: List[float], percentile: float) -> Tuple[float, int]:
    """Nearest-rank percentile and its 1-based rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], rank


class AnswerCheck:
    """Compares answer digests with the recorded ones and with each other."""

    def __init__(self, name: str) -> None:
        self.path = os.path.join(HERE, "answers", f"{name}.json")
        self.recorded: Dict[str, str] = {}
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as handle:
                self.recorded = json.load(handle)
        self.seen: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.unchecked = 0
        self.mismatches: List[str] = []

    def add(self, results: List[dict]) -> None:
        """Check every query of some sessions; a query fails on any mismatch."""
        for result in results:
            for answers in result["answers"]:
                self.attempted += 1
                bad = False
                for key, value in answers:
                    expected = self.recorded.get(key)
                    if expected is None:
                        self.unchecked += 1
                    else:
                        self.checked += 1
                        if value != expected:
                            bad = True
                            self.mismatches.append(f"{key}: {value} != recorded {expected}")
                    # Any key seen twice in one run (another round, the other
                    # fleet invocation, the traced round) must agree.
                    if self.seen.setdefault(key, value) != value:
                        bad = True
                        self.mismatches.append(f"{key}: {value} != earlier {self.seen[key]}")
                self.failed += bad

    def record(self) -> int:
        merged = dict(self.recorded)
        for key, value in self.seen.items():
            if merged.setdefault(key, value) != value:
                raise SystemExit(f"refusing to overwrite recorded answer {key}")
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(merged, handle, indent=0, sort_keys=True)
            handle.write("\n")
        return len(merged) - len(self.recorded)


def setup_samples(name: str, sessions: List[dict], tag: str) -> List[float]:
    """Set-up times of every session, topped up with set-up-only launches."""
    samples = [result["setup_s"] for result in sessions]
    probe = dict(WORKLOADS[name].rounds(DEFAULT_SEED)[0], cache_dir=None)
    while len(samples) < SETUP_SAMPLES:
        samples.append(run_session(
            name, probe, False, f"{tag}-probe{len(samples)}", 0, setup_only=True,
        )["setup_s"])
    return samples


def tail_percentile(count: int) -> int:
    """The highest whole percentile leaving ``TAIL_MARGIN`` of ``count``
    queries above its nearest rank (0 when there are too few queries)."""
    return max(0, (100 * (count - TAIL_MARGIN)) // count)


def end_to_end(rounds: List[List[dict]], sessions: List[dict],
               setups: List[float]) -> Tuple[dict, str, float]:
    """The end-to-end metrics of a measured run, the tail label and the
    latency of each round's first query.

    Every round asks the same queries in the same order, each round from the
    same set-up state, so position ``q`` of every round is one query
    measured once per round.  A query's latency is its fastest round: the
    machine's noise only ever adds time, and the best of many rounds spread
    over the run filters it where a mean or median does not.  The one
    closed-loop client completes queries at the rate these latencies allow,
    so the throughput is the query count over their sum.
    """
    per_round = [[value for result in results for value in result["latencies"]]
                 for results in rounds]
    best = [min(samples) for samples in zip(*per_round)]
    values = {
        "setup_s": statistics.median(setups),
        "query_p50_s": statistics.median(best),
        "throughput_qps": len(best) / sum(best),
        "peak_rss_mib": max(result["peak_rss_kib"] for result in sessions) / 1024.0,
    }
    percentile = tail_percentile(len(best))
    label = f"best of {len(rounds)} rounds; p{percentile} of {len(best)} queries"
    if percentile > 50:
        values["query_tail_s"] = nearest_rank(best, percentile)[0]
    else:
        label += f": omitted, no tail above the median leaves {TAIL_MARGIN} queries"
    return values, label, best[0]


def per_layer(untraced: List[dict], traced: List[dict]) -> Tuple[dict, List[str], List[str]]:
    """Per-layer metrics of the sessions of a traced round, its report table
    and missing names; ``untraced`` are the same sessions run untraced."""
    functions: Dict[str, Dict[str, int]] = {}
    counters: Dict[str, float] = {}
    errors: Dict[str, int] = {}
    missing: List[str] = []
    for result in traced:
        profile = result["profile"]
        for function, stats in profile["functions"].items():
            total = functions.setdefault(function, {"calls": 0, "self_ns": 0})
            total["calls"] += stats["calls"]
            total["self_ns"] += stats["self_ns"]
        for key, value in profile["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, value in profile["errors"].items():
            errors[key] = errors.get(key, 0) + value
        missing = profile["missing"]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: Dict[str, Tuple[float, str]] = {}
    layer_self: Dict[str, float] = {}
    for layer, entries in LAYERS.items():
        for _, _, function, _ in entries:
            full = f"{layer}.{function}"
            if full in missing:
                continue
            stats = functions[full]
            metrics[f"{full}.calls"] = (stats["calls"], "count")
            metrics[f"{full}.self_s"] = (stats["self_ns"] / 1e9, "s")
            layer_self[layer] = layer_self.get(layer, 0.0) + stats["self_ns"] / 1e9
        metrics[f"{layer}.errors"] = (errors.get(layer, 0), "count")

    def count(key: str) -> float:
        return counters.get(key, 0)

    metrics["sim.schedules.ops_built"] = (count("sim.schedules.ops_built"), "count")
    metrics["sim.fastpath.batch_rows"] = (count("sim.fastpath.batch_rows"), "count")
    for cache, layer in (("schedules", "schedule_cache"), ("timelines", "timeline_cache"),
                         ("programs", "program_cache")):
        hits = count(f"sim.fastpath.{cache}.hits")
        metrics[f"sim.fastpath.{layer}.hit_ratio"] = (
            ratio(hits, hits + count(f"sim.fastpath.{cache}.misses")), "ratio")
    for key in ("strategies_evaluated", "strategies_pruned",
                "schedules_simulated", "schedules_pruned"):
        metrics[f"parallel.search.{key}"] = (count(f"parallel.search.{key}"), "count")
    metrics["parallel.search.prune_ratio"] = (ratio(
        count("parallel.search.strategies_pruned"),
        count("parallel.search.strategies_pruned") + count("parallel.search.strategies_evaluated"),
    ), "ratio")
    hits = count("sim.costs.stage_profile_store.hits")
    metrics["sim.costs.stage_profile_store.hit_ratio"] = (
        ratio(hits, hits + count("sim.costs.stage_profile_store.misses")), "ratio")
    metrics["planner.plan_peak_over_live"] = (ratio(
        count("planner.planned_peak_bytes"), count("planner.live_peak_bytes")), "ratio")
    metrics["memory.reorganizations"] = (count("memory.reorganizations"), "count")
    metrics["memory.fragmentation_peak_bytes"] = (count("memory.fragmentation_peak_bytes"), "B")
    metrics["model.trace.requests"] = (count("model.trace.requests"), "count")
    metrics["sim.stochastic.replicas_drawn"] = (count("sim.stochastic.replicas_drawn"), "count")
    metrics["sim.stochastic.replica_use_ratio"] = (ratio(
        count("sim.stochastic.replicas_drawn"), count("sim.stochastic.replicas_cap")), "ratio")
    metrics["sim.failures.walk_replicas"] = (count("sim.failures.walk_replicas"), "count")
    for key in ("entries_loaded", "entries_saved"):
        metrics[f"fleet.{key}"] = (count(f"fleet.{key}"), "count")
    metrics["fleet.cache_file_bytes"] = (count("fleet.cache_file_bytes"), "B")

    query_total = sum(result["query_total_ns"] for result in traced) / 1e9
    unattributed = sum(
        result["profile"]["functions"]["query"]["self_ns"] for result in traced
    ) / 1e9
    untraced_s = sum(part["query_phase_s"] for result in untraced for part in result["rounds"])
    traced_s = sum(part["query_phase_s"] for result in traced for part in result["rounds"])
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s - 1.0, "ratio")
    metrics["trace.unattributed_share"] = (ratio(unattributed, query_total), "ratio")

    table = [f"traced query time {query_total:.3f} s "
             f"(untraced {untraced_s:.3f} s, tracing overhead "
             f"{100 * metrics['trace.overhead_ratio'][0]:+.1f}%)"]
    ranked = sorted(layer_self.items(), key=lambda item: -item[1])
    ranked.append(("(unattributed)", unattributed))
    for position, (layer, seconds) in enumerate(ranked):
        flag = "  <- BOTTLENECK" if position == 0 else ""
        table.append(f"  {layer:<24} {seconds:9.3f} s  {100 * ratio(seconds, query_total):5.1f}%{flag}")
    return metrics, table, missing


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run one round and store its answer digests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to benchmark: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2

    name = args.workload
    os.makedirs(WORK_DIR, exist_ok=True)
    tag = f"{name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    check = AnswerCheck(name)
    try:
        if args.record:
            check.add(run_rounds(name, args.seed, False, f"{tag}-record", 1)[0][0])
            added = check.record()
            print(f"recorded {added} new answers in {check.path}")
            return 0 if check.failed == 0 else 1
        if args.trace:
            untraced_rounds, untraced = run_rounds(name, args.seed, False, f"{tag}-r0", 1)
            traced_rounds, traced = run_rounds(name, args.seed, True, f"{tag}-traced", 1)
            check.add(untraced_rounds[0])
            check.add(traced_rounds[0])
            metrics, table, missing = per_layer(untraced, traced)
            lines = [f"{name} seed {args.seed}: traced round"] + table
            if missing:
                lines.append("missing (wrapped name no longer exists): " + ", ".join(missing))
            units = {key: unit for key, (_, unit) in metrics.items()}
            values = {key: value for key, (value, _) in metrics.items()}
        else:
            started = time.perf_counter()
            rounds, sessions = run_rounds(
                name, args.seed, False, f"{tag}-run", MIN_ROUNDS, args.seconds, PASSES)
            count = len(rounds)
            for results in rounds:
                check.add(results)
            setups = setup_samples(name, sessions, tag)
            values, tail_label, first = end_to_end(rounds, sessions, setups)
            units = END_TO_END_UNITS
            lines = [f"{name} seed {args.seed}: {count} rounds, {len(setups)} set-up "
                     f"samples, {time.perf_counter() - started:.1f} s"]
            for key in END_TO_END_UNITS:
                note = f"  ({tail_label})" if key == "query_tail_s" else ""
                shown = f"{values[key]:.6f}" if key in values else "-"
                lines.append(f"  {key:<16} {shown:>14} {units[key]}{note}")
            lines.append(f"  {'failed_ratio':<16} {check.failed / check.attempted:>14.6f} ratio")
            lines.append(f"  {'first query':<16} {first:>14.6f} s  (cold, best of {count} rounds)")
    except SessionError as error:
        print(error, file=sys.stderr)
        return 1
    finally:
        # Keep only the spans of the latest traced run of each workload/seed.
        for entry in os.listdir(WORK_DIR):
            if not entry.startswith(tag):
                continue
            path = os.path.join(WORK_DIR, entry)
            if entry.endswith(".result.json.spans.json"):
                session = entry[len(tag) + 1:-len(".result.json.spans.json")]
                os.replace(path, os.path.join(
                    WORK_DIR, f"spans-{name}-seed{args.seed}-{session}.json"))
            elif os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.remove(path)

    lines.append(f"answers: {check.checked} checked against {os.path.relpath(check.path, ROOT)}, "
                 f"{check.unchecked} without a recorded value, {check.failed} of "
                 f"{check.attempted} queries failed")
    lines.extend(f"  mismatch {entry}" for entry in check.mismatches[:20])
    print("\n".join(lines))
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {
            key: {"value": values[key], "unit": units[key]}
            for key in units if key in values
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
