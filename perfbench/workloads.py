"""The four seeded query workloads of the planner benchmark.

Each workload has two halves:

* a *generator* (``rounds``), pure Python with no import of the program,
  that turns ``--seed`` into the query lists of one measured round.  A
  round is one or more sessions; every session is a fresh process, which
  runs its share of every round in turn.  The seed only reorders a fixed
  population of queries, so every seed asks for the same total work while
  the streams differ;
* a *runner* (``runner``), executed inside a session process,
  that imports the program and builds what the first query needs (the
  set-up phase).  It returns ``run(log, round_index)``, which issues one
  round's queries one at a time, closed loop, from a single client, in a
  child forked from the set-up process, and logs each query's latency and
  answer digests.

An answer digest is the first 16 hex digits of the SHA-256 of a canonical
answer string.  Digests are keyed: a key names what the answer depends on,
so the recorded answers in ``answers/<workload>.json`` check any seed whose
queries fall in the recorded population.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

#: The default ``--seed``; its answers are recorded in ``answers/``.
DEFAULT_SEED = 0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class QueryLog:
    """What a runner reports: per-query latency and keyed answer digests."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.answers: List[List[Tuple[str, str]]] = []

    def add(self, latency: float, answers: List[Tuple[str, str]]) -> None:
        self.latencies.append(latency)
        self.answers.append(answers)


def timed(tracer, query_id: int, call: Callable[[], object]) -> Tuple[object, float]:
    """Run one query, traced when a tracer is installed; return its latency."""
    started = time.perf_counter()
    result = tracer.query(query_id, call) if tracer is not None else call()
    return result, time.perf_counter() - started


def in_fork(tracer, call: Callable[[], dict]) -> dict:
    """Run ``call`` in a forked child and return its JSON-able result.

    The child inherits this process's imports and objects but none of the
    work ``call`` does; when tracing, the child's spans and counters are
    merged back into ``tracer``.
    """
    mark = len(tracer.spans) if tracer is not None else 0
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        code = 0
        try:
            result = call()
            if tracer is not None:
                count_caches(tracer)
                result["trace"] = tracer.export(mark)
        except BaseException:
            result = {"error": traceback.format_exc()}
            code = 1
        with os.fdopen(write_end, "w", encoding="utf-8") as handle:
            json.dump(result, handle)
        os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, encoding="utf-8") as handle:
        result = json.load(handle)
    _, status = os.waitpid(pid, 0)
    if status != 0 or "error" in result:
        raise RuntimeError(f"forked query failed:\n{result.get('error')}")
    if tracer is not None:
        tracer.absorb(result.pop("trace"))
    return result


def count_caches(tracer) -> None:
    """Record the program's cache hit/miss counters (traced sessions only)."""
    from repro.sim.costs import stage_profile_store_info
    from repro.sim.fastpath import fastpath_cache_info

    for layer, info in fastpath_cache_info().items():
        tracer.count(f"sim.fastpath.{layer}.hits", info.hits)
        tracer.count(f"sim.fastpath.{layer}.misses", info.misses)
    hits, misses, _ = stage_profile_store_info()
    tracer.count("sim.costs.stage_profile_store.hits", hits)
    tracer.count("sim.costs.stage_profile_store.misses", misses)


def search_answer(report) -> str:
    """Feasibility, strategy, schedule kind and bit-exact iteration time."""
    return "|".join((
        str(report.feasible),
        str(report.failure_reason),
        report.parallel.describe() if report.parallel is not None else "-",
        report.schedule_kind.value if report.schedule_kind is not None else "-",
        float(report.iteration_time_s).hex(),
    ))


def count_search(tracer, report) -> None:
    """Strategy-search counters of one report (traced sessions only)."""
    if tracer is None:
        return
    tracer.count("parallel.search.strategies_evaluated", report.strategies_evaluated)
    tracer.count("parallel.search.strategies_pruned", report.strategies_pruned)
    tracer.count("parallel.search.schedules_simulated", report.schedules_simulated)
    tracer.count("parallel.search.schedules_pruned", report.schedules_pruned)


# --------------------------------------------------------------- search_auto

#: The ROADMAP reference point, pinned as the first query of every stream.
REFERENCE = ("megatron", "7B", 256, 32, 1024)

#: Search points per system in one round.
SEARCH_PER_SYSTEM = 8


def search_population() -> Dict[str, List[tuple]]:
    """Each system's fixed search points (model, seqlen K, GPUs, batch).

    Drawn in a fixed shuffled order from 7B-13B x 64K-1024K x 16-64 GPUs x
    global batch 256-2048, distinct across systems.  A cold pipeline-parallel
    search costs about 0.5 s at batch 256 and up to 5 s at 2048, so Megatron
    and MEMO, whose searches sweep pipeline schedules, share out the
    batch-256 points; the reference query covers the deep end, and DeepSpeed
    takes the larger batches.
    """
    points = [
        (model, seqlen_k, gpus, batch)
        for model in ("7B", "13B")
        for seqlen_k in (64, 128, 256, 512, 1024)
        for gpus in (16, 32, 64)
        for batch in (256, 512, 1024, 2048)
    ]
    random.Random(20250).shuffle(points)
    shallow = [point for point in points if point[3] == 256]
    deep = [point for point in points if point[3] != 256]
    return {
        "megatron": sorted(shallow[0::2][:SEARCH_PER_SYSTEM]),
        "memo": sorted(shallow[1::2][:SEARCH_PER_SYSTEM]),
        "deepspeed": sorted(deep[:SEARCH_PER_SYSTEM]),
    }


class SearchAuto:
    """Deterministic ``pipeline_schedule="auto"`` strategy searches."""

    name = "search_auto"

    def rounds(self, seed: int) -> List[dict]:
        rng = random.Random(seed)
        hands = []
        for system, points in search_population().items():
            hand = [[system, *point] for point in points]
            rng.shuffle(hand)
            hands.append(hand)
        stream = [list(REFERENCE)]
        for position in range(SEARCH_PER_SYSTEM):
            stream.extend(hand[position] for hand in hands)
        return [{"queries": stream}]

    def runner(self, session: dict, tracer):
        from repro.config import tokens
        from repro.systems.base import Workload
        from repro.systems.deepspeed import DeepSpeedSystem
        from repro.systems.megatron import MegatronSystem
        from repro.systems.memo import MemoSystem

        systems = {
            "megatron": MegatronSystem(pipeline_schedule="auto"),
            "memo": MemoSystem(pipeline_schedule="auto"),
            "deepspeed": DeepSpeedSystem(pipeline_schedule="auto"),
        }
        workloads = [
            Workload(model, tokens(seqlen_k), gpus, batch)
            for _, model, seqlen_k, gpus, batch in session["queries"]
        ]

        def search(index: int) -> dict:
            query, workload = session["queries"][index], workloads[index]
            report, latency = timed(tracer, index, lambda: systems[query[0]].run(workload))
            count_search(tracer, report)
            key = "search/" + "/".join(str(part) for part in query)
            return {"latency": latency, "answers": [(key, digest(search_answer(report)))]}

        def run(log: QueryLog, round_index: int) -> None:
            # Each query runs in a child forked from this set-up process, so
            # it starts with every in-process cache of the program empty, as
            # a fresh ``repro estimate`` would: its latency does not depend
            # on which queries the seed put before it.
            for index in range(len(session["queries"])):
                result = in_fork(tracer, lambda: search(index))
                log.add(result["latency"], result["answers"])

        return run


# -------------------------------------------------------------- paper_table3

class PaperTable3:
    """The full Table 3 grid, one cell per query, cell order seeded."""

    name = "paper_table3"

    def rounds(self, seed: int) -> List[dict]:
        from_models = (("7B", 8), ("13B", 16), ("30B", 32), ("65B", 64))
        lengths = (4, 8, 16, 32, 64, 128, 256, 384, 512, 640, 768, 896,
                   1024, 1152, 1280, 1408)
        cells = [
            [model, gpus, length, system]
            for model, gpus in from_models
            for length in lengths
            for system in ("DS", "Mega", "Memo")
        ]
        random.Random(seed).shuffle(cells)
        return [{"queries": cells}]

    def runner(self, session: dict, tracer):
        from repro.config import tokens
        from repro.experiments.table3 import (
            TABLE3_SEQUENCE_LENGTHS_K, TABLE3_WORKLOADS, Table3Cell, Table3Result,
        )
        from repro.systems.base import Workload
        from repro.systems.deepspeed import DeepSpeedSystem
        from repro.systems.megatron import MegatronSystem
        from repro.systems.memo import MemoSystem

        systems = {"DS": DeepSpeedSystem(), "Mega": MegatronSystem(), "Memo": MemoSystem()}
        expected = {
            (model, gpus, length, system)
            for model, gpus in TABLE3_WORKLOADS
            for length in TABLE3_SEQUENCE_LENGTHS_K
            for system in systems
        }
        if {tuple(cell) for cell in session["queries"]} != expected:
            raise ValueError("the generated cells are not the program's Table 3 grid")
        workloads = [
            Workload(model, tokens(length), gpus)
            for model, gpus, length, _ in session["queries"]
        ]

        def run(log: QueryLog, round_index: int) -> None:
            cells = []
            for index, (query, workload) in enumerate(zip(session["queries"], workloads)):
                system = systems[query[3]]
                report, latency = timed(tracer, index, lambda: system.run(workload))
                count_search(tracer, report)
                model, gpus, length, name = query
                cells.append(Table3Cell(model, gpus, length, name, report))
                answer = "|".join(
                    [search_answer(report)]
                    + [report.cell(metric) for metric in ("mfu", "tgs", "wall_clock")]
                )
                log.add(latency, [(f"cell/{model}/{length}K/{name}", digest(answer))])
            result = Table3Result(cells=cells)
            tables = "\n".join(
                result.to_table(metric).render() for metric in ("mfu", "tgs", "wall_clock")
            )
            log.answers[-1].append(("tables", digest(tables)))

        return run


# --------------------------------------------------------------- memory_plan

#: Nominal per-GPU tokens of a memory-plan iteration and its layer count.
#: Four layers keep a round near half a second, so a run fits many rounds.
MEMORY_TOKENS = 8192
MEMORY_LAYERS = 4
#: Relative length jitter of the Figure 1a-style iterations.
MEMORY_JITTER = (-0.08, -0.04, 0.0, 0.04, 0.08)
#: Iterations per round, each jitter level equally often.
MEMORY_QUERIES = 30
#: Per-GPU tokens -> training sequence of the matching MEMO workload: the
#: default TP=4 x CP=2 split on 8 GPUs shards 32 ways (see Figure 1a).
MEMORY_SHARDS = 32
MEMORY_GPUS = 8
#: Device capacity of the replayed allocator, above the largest iteration's
#: live peak (5.1 GiB): cached blocks still force reorganisations, but no
#: stream of seeds 0-10 runs out of memory.  An OOM aborts its replay early,
#: so a seed-dependent count of them would make the work per seed differ.
MEMORY_CAPACITY_GIB = 7


class MemoryPlan:
    """Trace -> DSA plan -> caching-allocator replay -> MEMO prepare."""

    name = "memory_plan"

    def rounds(self, seed: int) -> List[dict]:
        lengths = [
            max(256, int(MEMORY_TOKENS * (1.0 + jitter)) // 256 * 256)
            for jitter in MEMORY_JITTER
        ]
        stream = lengths * (MEMORY_QUERIES // len(lengths))
        random.Random(seed).shuffle(stream)
        return [{"queries": stream, "seed": seed}]

    def runner(self, session: dict, tracer):
        from repro.config import GiB
        from repro.core.framework import MemoFramework
        from repro.memory import caching_allocator
        from repro.memory.request import peak_live_bytes
        from repro.model import trace as model_trace
        from repro.model.specs import get_model_config
        from repro.planner import dsa, heuristics

        model = get_model_config("7B")
        capacity = int(MEMORY_CAPACITY_GIB * GiB)
        state = {"allocator": caching_allocator.CachingAllocator(capacity_bytes=capacity)}

        def iteration(length: int):
            trace = model_trace.full_model_trace(
                model, batch_size=1, sequence_length=length,
                num_layers=MEMORY_LAYERS, include_skeletal=True,
            )
            plan = heuristics.solve_heuristic(dsa.problem_from_trace(trace))
            oom = False
            try:
                state["allocator"].replay(trace)
            except caching_allocator.OutOfMemoryError:
                oom = True
            framework = MemoFramework.for_workload(
                "7B", length * MEMORY_SHARDS, MEMORY_GPUS,
            )
            return trace, plan, oom, framework.prepare()

        def run(log: QueryLog, round_index: int) -> None:
            seen_points = 0
            fragmentation_peak = 0
            reorganizations = 0
            for index, length in enumerate(session["queries"]):
                (trace, plan, oom, prepared), latency = timed(
                    tracer, index, lambda: iteration(length),
                )
                allocator = state["allocator"]
                points = allocator.timeline.points
                fragmentation_peak = max(
                    [fragmentation_peak]
                    + [point.fragmentation_bytes for point in points[seen_points:]]
                )
                seen_points = len(points)
                stats = allocator.stats
                live = peak_live_bytes(trace)
                shape = "|".join((
                    str(plan.peak_bytes), str(live),
                    prepared.alpha.alpha.hex(),
                    str(prepared.planning.plan.peak_bytes),
                    float(prepared.schedule.total_offload_bytes).hex(),
                ))
                history = "|".join(str(value) for value in (
                    plan.peak_bytes, stats.peak_allocated_bytes, stats.peak_reserved_bytes,
                    stats.num_reorganizations, fragmentation_peak, oom,
                ))
                log.add(latency, [
                    (f"shape/{length}", digest(shape)),
                    (f"seed{session['seed']}/q{index}", digest(history)),
                ])
                if tracer is not None:
                    tracer.count("planner.planned_peak_bytes", plan.peak_bytes)
                    tracer.count("planner.live_peak_bytes", live)
                if oom:
                    # An OOM verdict is an answer; the next iteration starts
                    # on a fresh device, as a restarted job would.
                    reorganizations += stats.num_reorganizations
                    state["allocator"] = caching_allocator.CachingAllocator(
                        capacity_bytes=capacity,
                    )
                    seen_points = 0
            if tracer is not None:
                tracer.count("memory.reorganizations",
                             reorganizations + state["allocator"].stats.num_reorganizations)
                tracer.count("memory.fragmentation_peak_bytes", fragmentation_peak)

        return run


# ---------------------------------------------------------------- fleet_risk

#: The fleet population; each round plans two overlapping seeded grids.
#: Two GPUs and small batches keep a point near 20 ms, so a run fits many
#: rounds and the failure walk outweighs the schedule sweep.
FLEET_POINTS = tuple(
    {"model": "7B", "seqlen_k": seqlen_k, "gpus": 2, "global_batch": batch}
    for seqlen_k in (8, 16, 24, 32, 40, 48)
    for batch in (4, 6, 8)
)
#: Points per invocation: the first invocation plans the head of the
#: population, the second its tail, and they share the points in between.
#: Fixed roles give every seed the same work; the seed orders each grid.
FLEET_INVOCATION_POINTS = 11

FLEET_SEARCH = {
    "system": "megatron",
    "jitter": "compute=0.05,straggler=0.1:3",
    "failures": "mtbf=43200,correlated=0.3:8",
    "objective": "ttrain_p99",
    "replicas": 8,
    "seed": 0,
    "target_iterations": 1000,
}


class FleetRisk:
    """Two ``plan_fleet`` invocations in fresh processes sharing a disk cache."""

    name = "fleet_risk"

    def rounds(self, seed: int) -> List[dict]:
        rng = random.Random(seed)
        first = list(FLEET_POINTS[:FLEET_INVOCATION_POINTS])
        second = list(FLEET_POINTS[-FLEET_INVOCATION_POINTS:])
        rng.shuffle(first)
        rng.shuffle(second)
        # An empty model axis: the grid is exactly the listed points.
        return [
            {"queries": [{"axes": {"model": []}, "points": first, "search": FLEET_SEARCH}],
             "cache": True},
            {"queries": [{"axes": {"model": []}, "points": second, "search": FLEET_SEARCH}],
             "cache": True},
        ]

    def runner(self, session: dict, tracer):
        from repro.fleet import grid as fleet_grid
        from repro.fleet import planner as fleet_planner

        grids = [fleet_grid.WorkloadGrid.from_spec(spec) for spec in session["queries"]]

        def run(log: QueryLog, round_index: int) -> None:
            # Round r of the second invocation reads what round r of the
            # first wrote, and nothing of another round.
            cache_dir = session["cache_dir"] and os.path.join(
                session["cache_dir"], f"round{round_index}")
            for index, grid in enumerate(grids):
                marks = []

                def progress(outcome) -> None:
                    marks.append((time.perf_counter(), outcome))

                started = time.perf_counter()
                report, _ = timed(tracer, index, lambda: fleet_planner.plan_fleet(
                    grid, workers=1, cache_dir=cache_dir, progress=progress,
                ))
                finished = time.perf_counter()
                previous = started
                for position, (mark, outcome) in enumerate(marks):
                    # The last point also pays for the cache save that
                    # completes the invocation.
                    end = finished if position == len(marks) - 1 else mark
                    row = outcome.to_json_dict()
                    row.pop("duration_s")
                    row.pop("cache_counters")
                    answer = json.dumps(row, sort_keys=True, separators=(",", ":"))
                    log.add(end - previous, [(f"point/{outcome.point.label()}", digest(answer))])
                    previous = end
                    if tracer is not None and outcome.report is not None:
                        count_search(tracer, outcome.report)

        return run


WORKLOADS = {
    workload.name: workload
    for workload in (SearchAuto(), PaperTable3(), MemoryPlan(), FleetRisk())
}
