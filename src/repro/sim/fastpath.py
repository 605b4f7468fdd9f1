"""Critical-path fast evaluation of pipeline schedules, with memoization.

The makespan of a *static* pipeline schedule is fully determined by its
dependency DAG: per-rank in-order execution, per-stage stream serialisation,
cross-rank activation/gradient hand-offs and host-transfer completions.  The
discrete-event run in :func:`repro.sim.pipeline.simulate_pipeline` resolves
those dependencies with a priority queue and per-event closures; this module
resolves the *same* recurrences with no event objects, which makes it
roughly an order of magnitude cheaper -- the difference between a strategy
search that crawls and one that flies.  It works in two steps:

* **lowering** -- :func:`compile_schedule_program` walks a schedule once into
  a cost-free :class:`ScheduleProgram`: the order the recurrence steps run in,
  decided by which dependency events have fired and by placement, never by a
  cost value, so one compile (cached per structure) serves every cost vector.
  It is the only code here that decides op order;
* **execution** -- :func:`critical_path_timeline` runs the program over one
  cost vector with plain floats; :func:`critical_path_timeline_batch` runs it
  over a batch, one float64 plane per cost field (:class:`CostPlanes`), with
  elementwise numpy recurrences (Monte-Carlo replica batching in
  :mod:`repro.sim.stochastic`), bit-identical per row.

Equivalence invariant (the load-bearing property of this module): for every
schedule and every cost vector, :func:`critical_path_timeline` returns the
same makespan, the same per-rank busy times (hence the same bubble fraction)
and the same per-rank peak memory as :func:`~repro.sim.pipeline.simulate_pipeline`
-- bit-identical, not merely approximately equal.  The executors reuse the
:class:`~repro.sim.streams.Stream` arithmetic and mirror the event engine's
``max``/``+`` expressions term for term, so no floating-point divergence can
creep in.  The event engine survives as the correctness oracle behind
``validate=True`` (and the property tests in
``tests/test_properties_fastpath.py`` re-prove the invariant on randomized
grids).

Why the propagation is exact and not a relaxation:

* ranks are in-order, so the time an op is *submitted* obeys the recurrence
  ``T_submit(op) = max(T_submit(prev), dep arrival times)`` -- the engine's
  poke loop computes exactly this, one event at a time;
* a compute op's start is ``max(earliest, stream.available_at)`` regardless of
  when it was submitted, so event timing beyond the recurrence is irrelevant;
* the one event-timing subtlety, the prefetch issued when a backward first
  reaches the head of its rank's queue, is ``max(T_submit(prev), forward_end)``
  in closed form (the engine pokes a rank at exactly those two times).

Around the evaluator sit two layers used by the strategy search:

* **memoization** -- :func:`cached_build_schedule` caches validated
  :class:`~repro.sim.schedules.PipelineSchedule` objects by their
  ``(kind, stages, micro_batches, chunks, wave ratio)`` structure key (the
  quantised wave ratio is part of a ZB-V schedule's identity: different
  ratios order the wavefront differently), and
  :func:`evaluate_schedule` caches fast-path timelines by
  ``(structure key, per-stage StageCosts tuple, transfer parameters)``;
  both keys are small and fully describe the computation, so the experiment
  grids and the ``pipeline_schedule="auto"`` sweep stop recomputing identical
  points (cache statistics: :func:`fastpath_cache_info`);
* **bound-based pruning** -- :func:`pipeline_lower_bound` is a cheap
  O(#stages) analytic lower bound on the simulated makespan (max over ranks
  of pipeline-fill + the rank's total work + gradient-drain for fused
  schedules, and the single-micro-batch traversal path), used by the
  candidate loops to skip simulating schedules that provably cannot beat the
  incumbent.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import warnings
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import lru_cache, update_wrapper
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sim.pipeline import (
    PipelineOpRecord,
    PipelineTimeline,
    StageCosts,
    _check_transfer_parameters,
    _normalise_costs,
    peak_activation_bytes,
    simulate_pipeline,
)
from repro.sim.schedules import (
    OpKind,
    PipelineSchedule,
    PlacementRule,
    ScheduleKind,
    UNIT_WAVE_RATIO,
    WaveRatio,
    build_schedule,
    quantise_wave_ratio,
    virtual_stage_ranks,
)

#: Relative safety margin applied to the analytic lower bound before a
#: pruning comparison: the bound's float summation order differs from the
#: simulator's, so without the margin a perfectly-packed schedule could be
#: pruned on a 1-ulp overshoot.  1e-9 dwarfs any accumulated rounding while
#: costing a vanishing amount of pruning power.
LOWER_BOUND_SAFETY = 1e-9


#: Generation counter of the fast-path caches.  Canonical schedules are
#: stamped with the generation they were built under; after a cache clear the
#: counter advances, so schedules from a dead generation stop qualifying for
#: the timeline cache (they can no longer alias refilled entries) and the next
#: :func:`cached_build_schedule` call rebuilds a fresh current-generation
#: instance.
_CACHE_GENERATION = 1


#: ``functools.lru_cache``-compatible statistics tuple: the benchmarks and
#: tests read ``.hits`` / ``.misses`` off :func:`fastpath_cache_info`, so the
#: persistent memoizer reports the exact same shape.
CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


class _PersistentLRU:
    """An ``lru_cache`` whose entries can be exported and re-injected.

    Drop-in replacement for ``functools.lru_cache`` on the fast-path layers:
    same positional-key memoization, same LRU eviction at ``maxsize``, same
    ``cache_info()`` / ``cache_clear()`` introspection surface.  What it adds
    is the persistence hooks the fleet planner needs -- :meth:`entries`
    exports the live mapping and :meth:`prime` injects entries *without
    touching the hit/miss counters*, so warming a cache from disk is
    invisible to the counter-exact benchmark guards.
    """

    def __init__(self, func: Callable, maxsize: int) -> None:
        self._func = func
        self._maxsize = maxsize
        self._data: "OrderedDict[tuple, object]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        update_wrapper(self, func)

    def __call__(self, *args):
        data = self._data
        try:
            value = data[args]
        except KeyError:
            self._misses += 1
            value = self._func(*args)
            data[args] = value
            if len(data) > self._maxsize:
                data.popitem(last=False)
            return value
        data.move_to_end(args)
        self._hits += 1
        return value

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses, self._maxsize, len(self._data))

    def cache_clear(self) -> None:
        self._data.clear()
        self._hits = 0
        self._misses = 0

    def entries(self) -> Dict[tuple, object]:
        """A shallow copy of the live ``key -> value`` mapping."""
        return dict(self._data)

    def prime(self, key: tuple, value: object) -> bool:
        """Insert a precomputed entry; counters untouched, existing keys win.

        Existing entries are kept (first-writer-wins): the resident value is
        bit-identical to the primed one by construction -- both are the
        deterministic builder output for the key -- and keeping it avoids
        orphaning instances already handed to callers.  Returns True when the
        entry was actually inserted.
        """
        if key in self._data:
            return False
        self._data[key] = value
        if len(self._data) > self._maxsize:
            self._data.popitem(last=False)
        return True


def _persistent_lru(maxsize: int):
    def decorate(func: Callable) -> _PersistentLRU:
        return _PersistentLRU(func, maxsize)
    return decorate


@_persistent_lru(maxsize=2048)
def _cached_build_schedule_inner(
    kind: ScheduleKind,
    num_stages: int,
    num_micro_batches: int,
    num_chunks: int,
    wave_ratio: Optional[WaveRatio],
) -> PipelineSchedule:
    schedule = build_schedule(
        kind, num_stages, num_micro_batches,
        num_chunks=num_chunks, wave_ratio=wave_ratio,
    )
    # Mark builder provenance on the (frozen) instance: the timeline cache
    # may only alias schedules whose rank_ops are the canonical builder
    # output for their structure key, and checking a marker avoids building
    # a canonical twin just to compare identities.  The generation stamp ties
    # the marker to the cache state it was issued under -- a clear invalidates
    # every outstanding stamp.
    object.__setattr__(schedule, "_canonical", True)
    object.__setattr__(schedule, "_canonical_generation", _CACHE_GENERATION)
    return schedule


def cached_build_schedule(
    kind: ScheduleKind,
    num_stages: int,
    num_micro_batches: int,
    num_chunks: int = 1,
    wave_ratio: Optional[WaveRatio] = None,
) -> PipelineSchedule:
    """Memoized :func:`repro.sim.schedules.build_schedule`.

    A schedule is fully determined by ``(kind, p, m, v, wave ratio)`` and
    immutable, so the strategy search shares one validated instance per
    structure key instead of rebuilding (and re-validating) ``O(p * m * v)``
    op lists for every candidate evaluation.

    This thin wrapper normalises the call *before* the ``lru_cache`` layer --
    positional and keyword invocations, an omitted vs explicit default
    ``num_chunks``, and the ratio of kinds the ratio cannot shape (block
    placements, or the unit ratio itself) all collapse onto one cache key, so
    call-style differences can no longer split the cache into duplicate
    entries holding distinct instances of the same schedule.
    """
    if wave_ratio is not None:
        if not isinstance(wave_ratio, WaveRatio):
            wave_ratio = WaveRatio(*wave_ratio)
        if (
            kind.placement is not PlacementRule.V_WAVE
            or wave_ratio == UNIT_WAVE_RATIO
        ):
            wave_ratio = None
    return _cached_build_schedule_inner(
        kind, num_stages, num_micro_batches, num_chunks, wave_ratio,
    )


def _clear_schedule_cache() -> None:
    """Drop the schedule cache and retire its generation of canonical stamps."""
    global _CACHE_GENERATION
    _CACHE_GENERATION += 1
    _cached_build_schedule_inner.cache_clear()


# The wrapper keeps the lru_cache introspection surface callers rely on
# (fastpath_cache_info, benchmarks, tests); cache_clear routes through the
# generation bump so stale canonical stamps can never alias refilled entries.
cached_build_schedule.cache_info = _cached_build_schedule_inner.cache_info  # type: ignore[attr-defined]
cached_build_schedule.cache_clear = _clear_schedule_cache  # type: ignore[attr-defined]


def wave_ratio_from_costs(
    costs: Union[StageCosts, Sequence[StageCosts]],
) -> WaveRatio:
    """The quantised wavefront ratio a candidate's real costs induce.

    Averages the per-virtual-stage forward, grad-input (recompute included --
    the grad-input op carries the recompute stall in both simulators) and
    grad-weight durations, then snaps them onto the bucket grid
    (:func:`repro.sim.schedules.quantise_wave_ratio`).  Bucketing is what
    keeps the schedule/timeline caches effective under cost-aware ZB-V: every
    cost vector within a bucket shares one cache key.
    """
    if isinstance(costs, StageCosts):
        per_stage = [costs]
    else:
        per_stage = list(costs)
    if not per_stage:
        return UNIT_WAVE_RATIO
    scale = 1.0 / len(per_stage)
    forward = sum(stage.forward_s for stage in per_stage) * scale
    backward_input = sum(
        stage.recompute_s + stage.split_backward_input_s for stage in per_stage
    ) * scale
    backward_weight = sum(
        stage.split_backward_weight_s for stage in per_stage
    ) * scale
    return quantise_wave_ratio(forward, backward_input, backward_weight)


# ------------------------------------------------------- lowering + executors
#
# Evaluating a schedule interleaves *which* recurrence step runs next with
# *what* floats that step combines.  The first is pure structure, resolved once
# per schedule by :func:`_compile_program`; the two executors below replay its
# instruction stream, one with plain floats and one with ``(B,)``-shaped float64
# vectors, in the same operation order -- so the fast == event invariant holds
# per batch row, not merely in aggregate.

#: Instruction opcodes (stream positions, not schedule ops: a backward's
#: prefetch issue is its own instruction because it can happen at an *earlier*
#: point of the stream than the backward itself, when the gradient lags).
_OP_FORWARD = 0
_OP_WEIGHT = 1
_OP_BACKWARD = 2
_OP_BACKWARD_INPUT = 3
_OP_PREFETCH = 4


@dataclass(frozen=True)
class ScheduleProgram:
    """A :class:`~repro.sim.schedules.PipelineSchedule` lowered for execution.

    ``instructions`` is the order the recurrence steps run in, flattened into a
    linear stream: ``(opcode, rank, virtual_stage, key, send_key, cross, is_last)``
    tuples, where ``key = virtual_stage * m + micro_batch`` indexes the
    dependency tables, ``send_key`` is the downstream (forward) or upstream
    (gradient) table slot fed by the op (``-1`` for none) and ``cross`` marks
    a hand-off that leaves the rank (the only case a P2P hop can be charged).
    The program is pure structure -- cost-free, so one compile serves every
    cost vector -- and immutable; :func:`compile_schedule_program` memoizes it
    by the same ``(kind, p, m, v, wave ratio)`` key as the schedule cache.
    """

    schedule: PipelineSchedule
    instructions: Tuple[Tuple[int, int, int, int, int, bool, bool], ...]


def _compile_program(schedule: PipelineSchedule) -> ScheduleProgram:
    """Lower a schedule into its linear instruction stream.

    The one owner of op order.  A worklist walks the ranks' in-order op lists,
    tracking only *whether* each dependency event has fired, never a time: a
    rank runs until its next op's input has not fired yet, and a hand-off to
    another rank puts that rank back on the worklist.  A backward's prefetch
    is emitted the first time the backward heads its rank's queue with its
    forward done (the event engine's first eligible poke).  Every branch is
    decided by that boolean state or by placement, so the stream is valid for
    every cost vector.

    Raises:
        RuntimeError: if the schedule deadlocks (cannot happen for schedules
            from :func:`~repro.sim.schedules.build_schedule`).
    """
    p = schedule.num_stages
    m = schedule.num_micro_batches
    last_stage = schedule.num_virtual_stages - 1
    vs_rank = schedule.virtual_stage_ranks
    size = schedule.num_virtual_stages * m
    forward_ready = [True] * m + [False] * (size - m)
    forward_done = [False] * size
    grad_ready = [False] * size
    prefetch_issued = [False] * size
    pointer = [0] * p
    instructions: List[Tuple[int, int, int, int, int, bool, bool]] = []

    kind_forward = OpKind.FORWARD
    kind_weight = OpKind.BACKWARD_WEIGHT
    worklist = list(range(p))
    while worklist:
        rank = worklist.pop()
        ops = schedule.rank_ops[rank]
        num_ops = len(ops)
        index = pointer[rank]
        while index < num_ops:
            op = ops[index]
            kind, _, _, micro_batch, virtual_stage = op
            key = virtual_stage * m + micro_batch
            if kind is kind_forward:
                if not forward_ready[key]:
                    break
                forward_done[key] = True
                send_key = -1
                cross = False
                if virtual_stage < last_stage:
                    send_key = key + m
                    if vs_rank[virtual_stage + 1] != rank:
                        cross = True
                        worklist.append(vs_rank[virtual_stage + 1])
                    forward_ready[send_key] = True
                instructions.append(
                    (_OP_FORWARD, rank, virtual_stage, key, send_key, cross, False)
                )
            elif kind is kind_weight:
                instructions.append(
                    (_OP_WEIGHT, rank, virtual_stage, -1, -1, False, False)
                )
            else:  # BACKWARD or BACKWARD_INPUT
                if not forward_done[key]:
                    break
                if not prefetch_issued[key]:
                    # Issued the first time the backward heads its rank's
                    # queue with the forward done, even when the gradient then
                    # stalls the rank -- so the issue is an instruction of its
                    # own.
                    prefetch_issued[key] = True
                    instructions.append(
                        (_OP_PREFETCH, rank, virtual_stage, key, -1, False, False)
                    )
                is_last = virtual_stage == last_stage
                if not is_last and not grad_ready[key]:
                    break
                send_key = -1
                cross = False
                if virtual_stage > 0:
                    send_key = key - m
                    if vs_rank[virtual_stage - 1] != rank:
                        cross = True
                        worklist.append(vs_rank[virtual_stage - 1])
                    grad_ready[send_key] = True
                opcode = (
                    _OP_BACKWARD_INPUT if kind is OpKind.BACKWARD_INPUT
                    else _OP_BACKWARD
                )
                instructions.append(
                    (opcode, rank, virtual_stage, key, send_key, cross, is_last)
                )
            index += 1
        pointer[rank] = index

    stuck = [
        (rank, schedule.rank_ops[rank][pointer[rank]])
        for rank in range(p)
        if pointer[rank] < len(schedule.rank_ops[rank])
    ]
    if stuck:
        summary = ", ".join(f"rank {rank}: {op}" for rank, op in stuck)
        raise RuntimeError(f"pipeline schedule deadlocked at {summary}")
    return ScheduleProgram(schedule=schedule, instructions=tuple(instructions))


@lru_cache(maxsize=2048)
def _cached_schedule_program(
    kind: ScheduleKind,
    num_stages: int,
    num_micro_batches: int,
    num_chunks: int,
    wave_ratio: Optional[WaveRatio],
) -> ScheduleProgram:
    schedule = cached_build_schedule(
        kind, num_stages, num_micro_batches, num_chunks, wave_ratio,
    )
    return _compile_program(schedule)


def _structure_key(schedule: PipelineSchedule) -> Optional[tuple]:
    """The ``(kind, p, m, v, wave ratio)`` cache key of a schedule, if any.

    The key only describes schedules produced by the canonical builder.  A
    hand-built schedule with custom rank_ops must not alias a canonical cache
    entry, and neither may a canonical schedule from a *retired* generation
    (cleared caches refill with fresh instances; a stale stamp must not route
    its holder through them), so both get ``None`` and are evaluated directly.
    """
    if (
        getattr(schedule, "_canonical", False)
        and getattr(schedule, "_canonical_generation", 0) == _CACHE_GENERATION
    ):
        ratio = schedule.wave_ratio
        return (
            schedule.kind, schedule.num_stages, schedule.num_micro_batches,
            schedule.num_chunks, None if ratio == UNIT_WAVE_RATIO else ratio,
        )
    return None


def compile_schedule_program(schedule: PipelineSchedule) -> ScheduleProgram:
    """The (memoized) :class:`ScheduleProgram` of a schedule.

    Schedules with a :func:`_structure_key` route through an ``lru_cache`` on
    it -- the program is cost-free, so every cost vector of a structure shares
    one compile.  Other schedules are compiled directly.
    """
    key = _structure_key(schedule)
    return _compile_program(schedule) if key is None else _cached_schedule_program(*key)


def critical_path_timeline(
    schedule: PipelineSchedule,
    costs: Union[StageCosts, Sequence[StageCosts]],
    p2p_bandwidth_bytes_per_s: float = float("inf"),
    p2p_latency_s: float = 0.0,
    pcie_bandwidth_bytes_per_s: float = 16e9,
    record_ops: bool = False,
) -> PipelineTimeline:
    """Evaluate a pipeline schedule by longest-path propagation over its DAG.

    Drop-in replacement for :func:`repro.sim.pipeline.simulate_pipeline`
    returning a bit-identical :class:`~repro.sim.pipeline.PipelineTimeline`
    (makespan, per-rank busy times, bubble, peak memory) without running the
    discrete-event engine: the schedule's compiled program runs over one cost
    vector with plain floats, in the same ``max``/``+`` order as
    :func:`critical_path_timeline_batch`.  ``records`` are populated only when
    ``record_ops=True`` (the search never reads them); they come in program
    order, which is schedule order within each rank -- use
    :meth:`~repro.sim.pipeline.PipelineTimeline.record` to look ops up.

    Raises:
        ValueError: on a non-positive or NaN bandwidth, or a negative or NaN
            latency.
        RuntimeError: if the schedule deadlocks (cannot happen for schedules
            from :func:`~repro.sim.schedules.build_schedule`).
    """
    per_stage = _normalise_costs(schedule, costs)
    _check_transfer_parameters(
        p2p_bandwidth_bytes_per_s, p2p_latency_s, pcie_bandwidth_bytes_per_s,
    )
    program = compile_schedule_program(schedule)

    p = schedule.num_stages
    size = schedule.num_virtual_stages * schedule.num_micro_batches
    pcie = pcie_bandwidth_bytes_per_s
    # Durations summed with the event engine's expressions (so the same
    # floats); transfer terms are ``None`` where the stage moves zero bytes,
    # as the event engine then skips the transfer outright.
    forward_dur = [stage.forward_s for stage in per_stage]
    weight_dur = [stage.split_backward_weight_s for stage in per_stage]
    fused_dur = [stage.recompute_s + stage.backward_s for stage in per_stage]
    input_dur = [stage.recompute_s + stage.split_backward_input_s for stage in per_stage]
    offload = [s.offload_bytes / pcie if s.offload_bytes > 0 else None for s in per_stage]
    prefetch = [s.prefetch_bytes / pcie if s.prefetch_bytes > 0 else None for s in per_stage]
    hop = [
        p2p_latency_s + s.p2p_bytes / p2p_bandwidth_bytes_per_s if s.p2p_bytes > 0 else None
        for s in per_stage
    ]
    # Streams as flat floats (``start = max(earliest, avail); end = start +
    # duration; busy += duration`` is Stream.submit verbatim), plus each
    # rank's clock: the latest dependency arrival it has seen, which is the
    # event engine's ``now`` when it issues the rank's next prefetch.
    compute_avail, compute_busy, d2h_avail, d2h_busy, h2d_avail, h2d_busy, now = (
        [0.0] * p for _ in range(7)
    )
    # Dependency tables indexed by ``key``; the program reads a slot only
    # after writing it (stage-0 forwards start ready at 0.0).
    forward_ready, forward_done, grad_ready = ([0.0] * size for _ in range(3))
    prefetch_end: List[Optional[float]] = [None] * size
    records: List[PipelineOpRecord] = []
    cursor = [0] * p

    for opcode, rank, vs, key, send_key, cross, is_last in program.instructions:
        if opcode == _OP_PREFETCH:
            transfer = prefetch[vs]
            if transfer is not None:
                issue = max(now[rank], forward_done[key])
                prefetch_end[key] = h2d_avail[rank] = max(issue, h2d_avail[rank]) + transfer
                h2d_busy[rank] += transfer
            continue  # a transfer, not a schedule op: no record
        avail = compute_avail[rank]
        if opcode == _OP_FORWARD:
            earliest = forward_ready[key]
            if earliest > now[rank]:
                now[rank] = earliest
            duration = forward_dur[vs]
        elif opcode == _OP_WEIGHT:
            # The event engine submits W at ``max(now, avail)``, but ``now``
            # only holds dependency arrivals of ops the rank already ran, and
            # each of those ended after its arrivals: the max *is* ``avail``.
            earliest = avail
            duration = weight_dur[vs]
        else:  # _OP_BACKWARD or _OP_BACKWARD_INPUT
            forward_end = forward_done[key]
            # The loss gradient follows the last stage's forward.
            earliest = forward_end if is_last else max(grad_ready[key], forward_end)
            if earliest > now[rank]:
                now[rank] = earliest
            fetched = prefetch_end[key]
            if fetched is not None and fetched > earliest:
                earliest = fetched
            duration = input_dur[vs] if opcode == _OP_BACKWARD_INPUT else fused_dur[vs]
        start = earliest if earliest > avail else avail
        end = start + duration
        compute_avail[rank] = end
        compute_busy[rank] += duration
        if opcode == _OP_FORWARD:
            forward_done[key] = end
            transfer = offload[vs]
            if transfer is not None:
                d2h_avail[rank] = max(end, d2h_avail[rank]) + transfer
                d2h_busy[rank] += transfer
            if send_key >= 0:
                charge = hop[vs]
                forward_ready[send_key] = end + charge if cross and charge is not None else end
        elif send_key >= 0:
            charge = hop[vs - 1]
            grad_ready[send_key] = end + charge if cross and charge is not None else end
        if record_ops:
            records.append(
                PipelineOpRecord(schedule.rank_ops[rank][cursor[rank]], start, end)
            )
            cursor[rank] += 1

    return PipelineTimeline(
        schedule=schedule,
        total_s=max(compute_avail + d2h_avail + h2d_avail),
        rank_compute_busy_s=compute_busy,
        rank_d2h_busy_s=d2h_busy,
        rank_h2d_busy_s=h2d_busy,
        rank_peak_in_flight=schedule.peak_in_flight(),
        rank_peak_activation_bytes=peak_activation_bytes(schedule, per_stage),
        records=records,
    )


#: The :class:`StageCosts` attribute of each cost plane, in plane order.
PLANE_FIELDS = (
    "forward_s", "backward_s", "recompute_s", "split_backward_weight_s",
    "p2p_bytes", "offload_bytes", "prefetch_bytes",
)


@dataclass(frozen=True)
class CostPlanes:
    """A batch of per-virtual-stage cost vectors, one float64 plane per field.

    ``values`` has shape ``(7, num_virtual_stages, rows)``; plane ``k`` holds
    :data:`PLANE_FIELDS` ``[k]`` of every stage and row (the grad-weight
    plane is the op's duration, half the backward where a stage leaves the
    split to the default).  Construction runs :class:`StageCosts`'s checks
    over every element: finite, non-negative, grad-weight <= backward + 1e-12.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = self.values
        valid = (values >= 0.0) & (values < np.inf)  # NaN fails both
        valid[3] &= values[3] <= values[1] + 1e-12
        if not valid.all():
            field, stage, row = np.argwhere(~valid)[0]
            raise ValueError(
                f"{PLANE_FIELDS[field]}={values[field, stage, row]} at virtual stage "
                f"{stage}, row {row}: costs must be finite and non-negative, and the "
                f"grad-weight share at most backward_s={values[1, stage, row]}"
            )

    @classmethod
    def from_rows(
        cls,
        schedule: PipelineSchedule,
        cost_batch: Sequence[Union[StageCosts, Sequence[StageCosts]]],
    ) -> "CostPlanes":
        """Planes of ``B`` cost vectors (each broadcast/validated like the
        scalar path's ``costs`` argument)."""
        rows = [_normalise_costs(schedule, costs) for costs in cost_batch]
        if not rows:
            raise ValueError("cost_batch must hold at least one cost vector")
        return cls(np.array([
            [[getattr(per_stage[vs], name) for per_stage in rows] for vs in range(len(rows[0]))]
            for name in PLANE_FIELDS
        ], dtype=float))


@dataclass(frozen=True)
class BatchTimeline:
    """Per-row timing results of one :func:`critical_path_timeline_batch` call.

    Row ``b`` holds exactly the floats a scalar
    :func:`critical_path_timeline` call on cost vector ``b`` reports --
    bit-identical, which is what lets the Monte-Carlo layers consume prefixes
    of a batch interchangeably with scalar draws.  Only the timing fields are
    materialised (makespan, busy times, bubble); :meth:`timeline` adds the
    peak memory of one row's cost vector.
    """

    schedule: PipelineSchedule
    total_s: np.ndarray              # (B,)
    rank_compute_busy_s: np.ndarray  # (p, B)
    rank_d2h_busy_s: np.ndarray      # (p, B)
    rank_h2d_busy_s: np.ndarray      # (p, B)
    bubble_fraction: np.ndarray      # (B,)

    @property
    def batch_size(self) -> int:
        return int(self.total_s.shape[0])

    def timeline(self, row: int, costs: Sequence[StageCosts]) -> PipelineTimeline:
        """Row ``row`` as the :class:`PipelineTimeline` that
        :func:`critical_path_timeline` returns for ``costs``, that row's cost
        vector (without ``records``)."""
        return PipelineTimeline(
            schedule=self.schedule,
            total_s=float(self.total_s[row]),
            rank_compute_busy_s=self.rank_compute_busy_s[:, row].tolist(),
            rank_d2h_busy_s=self.rank_d2h_busy_s[:, row].tolist(),
            rank_h2d_busy_s=self.rank_h2d_busy_s[:, row].tolist(),
            rank_peak_in_flight=self.schedule.peak_in_flight(),
            rank_peak_activation_bytes=peak_activation_bytes(self.schedule, costs),
        )


def critical_path_timeline_batch(
    program: ScheduleProgram,
    cost_batch: Union[CostPlanes, Sequence[Sequence[StageCosts]]],
    p2p_bandwidth_bytes_per_s: float = float("inf"),
    p2p_latency_s: float = 0.0,
    pcie_bandwidth_bytes_per_s: float = 16e9,
) -> BatchTimeline:
    """Propagate a batch of cost vectors through one compiled schedule DAG.

    ``cost_batch`` is a :class:`CostPlanes` of ``B`` rows, or ``B``
    per-virtual-stage cost vectors (each broadcast/validated exactly like the
    scalar path's ``costs`` argument) that :meth:`CostPlanes.from_rows`
    stacks; either way the rows share the program's schedule structure.
    Transfer parameters are shared across the batch, matching how the
    Monte-Carlo layers perturb durations and byte counts but never the
    fabric.  Returns a :class:`BatchTimeline` whose row ``b`` is
    bit-identical to ``critical_path_timeline(program.schedule, row b, ...)``.

    Why each row stays exact: the grad-input and fused durations are summed
    with the scalar path's expressions, plane-wide; the replay performs the
    scalar recurrence's ``max``/``+`` operations in the same order with
    ``np.maximum``/``+`` on float64 vectors (elementwise IEEE operations,
    identical to the scalar ones); cost-dependent byte branches (offload,
    prefetch, P2P payloads) are handled per row with masks whose untaken side
    reproduces the scalar's skipped-branch value (``x + 0.0 == x`` for the
    non-negative times here, and an unissued prefetch is ``-inf``, the
    identity of ``max``).
    """
    schedule = program.schedule
    _check_transfer_parameters(
        p2p_bandwidth_bytes_per_s, p2p_latency_s, pcie_bandwidth_bytes_per_s,
    )
    if not isinstance(cost_batch, CostPlanes):
        cost_batch = CostPlanes.from_rows(schedule, cost_batch)
    forward_dur, backward, recompute, weight_dur, p2p_bytes, offload_bytes, prefetch_bytes = (
        cost_batch.values
    )
    num_virtual, batch = forward_dur.shape
    if num_virtual != schedule.num_virtual_stages:
        raise ValueError(
            f"expected {schedule.num_virtual_stages} per-virtual-stage costs, got {num_virtual}"
        )
    p = schedule.num_stages
    m = schedule.num_micro_batches
    # ``recompute_s + backward_s`` and ``recompute_s + split_backward_input_s``
    # (the input share being ``backward_s - split_backward_weight_s``).
    fused_dur = recompute + backward
    input_dur = recompute + (backward - weight_dur)

    # Cost-dependent branch state, resolved per stage plane: the scalar's
    # ``bytes > 0`` branches become masks, and planes that are zero across
    # the whole batch skip their stream bookkeeping entirely (taking exactly
    # the scalar's untaken branch on every row).
    offload_mask = offload_bytes > 0.0
    offload_any = offload_mask.any(axis=1)
    offload_transfer = offload_bytes / pcie_bandwidth_bytes_per_s
    prefetch_mask = prefetch_bytes > 0.0
    prefetch_any = prefetch_mask.any(axis=1)
    prefetch_transfer = prefetch_bytes / pcie_bandwidth_bytes_per_s
    track_now = bool(prefetch_any.any())
    hop_mask = p2p_bytes > 0.0
    hop_any = hop_mask.any(axis=1)
    # ``arrival = end + (latency + bytes / bandwidth)`` for a charged hop;
    # a zero-byte row's hop is 0.0, and ``end + 0.0 == end`` exactly for the
    # non-negative times involved, so one unconditional add per send suffices.
    hop = np.where(hop_mask, p2p_latency_s + p2p_bytes / p2p_bandwidth_bytes_per_s, 0.0)

    zeros_row = np.zeros(batch)
    neg_inf = np.full(batch, -np.inf)
    avail: List[np.ndarray] = [zeros_row] * p
    busy = np.zeros((p, batch))
    busy_rows = [busy[rank] for rank in range(p)]
    d2h_avail: List[np.ndarray] = [zeros_row] * p
    d2h_busy = np.zeros((p, batch))
    h2d_avail: List[np.ndarray] = [zeros_row] * p
    h2d_busy = np.zeros((p, batch))
    now: List[np.ndarray] = [zeros_row] * p
    size = num_virtual * m
    # Dependency tables hold row references; the program guarantees every read
    # slot was written (or is an initial-ready forward), so no ``None`` state
    # survives to execution -- except ``prefetch_end``, whose ``None`` means
    # "no row of the batch ever issues here".
    forward_ready: List[Optional[np.ndarray]] = [zeros_row] * m + [None] * (size - m)
    forward_done: List[Optional[np.ndarray]] = [None] * size
    grad_ready: List[Optional[np.ndarray]] = [None] * size
    prefetch_end: List[Optional[np.ndarray]] = [None] * size

    maximum = np.maximum
    where = np.where
    for opcode, rank, vs, key, send_key, cross, is_last in program.instructions:
        if opcode == _OP_FORWARD:
            ready = forward_ready[key]
            duration = forward_dur[vs]
            end = maximum(ready, avail[rank])
            end += duration
            avail[rank] = end
            busy_rows[rank] += duration
            if track_now:
                now[rank] = maximum(now[rank], ready)
            forward_done[key] = end
            if offload_any[vs]:
                transfer = offload_transfer[vs]
                mask = offload_mask[vs]
                started = maximum(end, d2h_avail[rank])
                started += transfer
                d2h_avail[rank] = where(mask, started, d2h_avail[rank])
                d2h_busy[rank] = where(mask, d2h_busy[rank] + transfer, d2h_busy[rank])
            if send_key >= 0:
                if cross and hop_any[vs]:
                    forward_ready[send_key] = end + hop[vs]
                else:
                    forward_ready[send_key] = end
        elif opcode == _OP_WEIGHT:
            # Submitted at ``avail``, as in the scalar executor.
            duration = weight_dur[vs]
            end = avail[rank] + duration
            avail[rank] = end
            busy_rows[rank] += duration
        elif opcode == _OP_PREFETCH:
            if prefetch_any[vs]:
                forward_end = forward_done[key]
                issue = maximum(now[rank], forward_end)
                transfer = prefetch_transfer[vs]
                started = maximum(issue, h2d_avail[rank])
                started += transfer
                mask = prefetch_mask[vs]
                h2d_avail[rank] = where(mask, started, h2d_avail[rank])
                h2d_busy[rank] = where(mask, h2d_busy[rank] + transfer, h2d_busy[rank])
                # Rows that issue read their transfer end; rows that do not
                # keep -inf, the identity of the ``max`` merging it below.
                prefetch_end[key] = where(mask, started, neg_inf)
        else:  # _OP_BACKWARD or _OP_BACKWARD_INPUT
            forward_end = forward_done[key]
            if is_last:
                earliest = forward_end  # loss gradient follows the forward
            else:
                earliest = maximum(grad_ready[key], forward_end)
            if track_now:
                # The event engine folds forward_end and grad into the clock;
                # their max is ``earliest`` before the prefetch merge.
                now[rank] = maximum(now[rank], earliest)
            fetched = prefetch_end[key]
            if fetched is not None:
                earliest = maximum(earliest, fetched)
            duration = input_dur[vs] if opcode == _OP_BACKWARD_INPUT else fused_dur[vs]
            end = maximum(earliest, avail[rank])
            end += duration
            avail[rank] = end
            busy_rows[rank] += duration
            if send_key >= 0:
                if cross and hop_any[vs - 1]:
                    grad_ready[send_key] = end + hop[vs - 1]
                else:
                    grad_ready[send_key] = end

    total = avail[0].copy()
    for rank in range(1, p):
        maximum(total, avail[rank], out=total)
    for stream in (d2h_avail, h2d_avail):
        for rank in range(p):
            maximum(total, stream[rank], out=total)

    # Bubble fraction, mirroring PipelineTimeline.bubble_fraction: python
    # ``sum`` over the rank list is sequential in rank order, as is this loop.
    busy_sum = busy[0].copy()
    for rank in range(1, p):
        busy_sum += busy[rank]
    with np.errstate(divide="ignore", invalid="ignore"):
        bubble = where(
            total > 0.0,
            np.maximum(1.0 - busy_sum / (p * total), 0.0),
            0.0,
        )
    return BatchTimeline(
        schedule=schedule,
        total_s=total,
        rank_compute_busy_s=busy,
        rank_d2h_busy_s=d2h_busy,
        rank_h2d_busy_s=h2d_busy,
        bubble_fraction=bubble,
    )


class FastPathMismatchError(AssertionError):
    """The fast evaluator and the event-engine oracle disagreed.

    Raised only under ``validate=True``; a disagreement means the equivalence
    invariant is broken and the fast path must not be trusted.
    """


def _check_against_oracle(fast: PipelineTimeline, oracle: PipelineTimeline) -> None:
    pairs = [
        ("total_s", fast.total_s, oracle.total_s),
        ("rank_compute_busy_s", fast.rank_compute_busy_s, oracle.rank_compute_busy_s),
        ("rank_d2h_busy_s", fast.rank_d2h_busy_s, oracle.rank_d2h_busy_s),
        ("rank_h2d_busy_s", fast.rank_h2d_busy_s, oracle.rank_h2d_busy_s),
        ("rank_peak_in_flight", fast.rank_peak_in_flight, oracle.rank_peak_in_flight),
        (
            "rank_peak_activation_bytes",
            fast.rank_peak_activation_bytes,
            oracle.rank_peak_activation_bytes,
        ),
    ]
    for name, fast_value, oracle_value in pairs:
        if fast_value != oracle_value:
            raise FastPathMismatchError(
                f"fast path diverged from the event engine on {name}: "
                f"{fast_value!r} != {oracle_value!r} "
                f"({fast.schedule.kind.value}, p={fast.schedule.num_stages}, "
                f"m={fast.schedule.num_micro_batches}, v={fast.schedule.num_chunks})"
            )


@_persistent_lru(maxsize=4096)
def _cached_fast_timeline(
    kind: ScheduleKind,
    num_stages: int,
    num_micro_batches: int,
    num_chunks: int,
    wave_ratio: Optional[WaveRatio],
    costs: Tuple[StageCosts, ...],
    p2p_bandwidth_bytes_per_s: float,
    p2p_latency_s: float,
    pcie_bandwidth_bytes_per_s: float,
) -> PipelineTimeline:
    schedule = cached_build_schedule(
        kind, num_stages, num_micro_batches, num_chunks, wave_ratio,
    )
    return critical_path_timeline(
        schedule, list(costs),
        p2p_bandwidth_bytes_per_s=p2p_bandwidth_bytes_per_s,
        p2p_latency_s=p2p_latency_s,
        pcie_bandwidth_bytes_per_s=pcie_bandwidth_bytes_per_s,
    )


def evaluate_schedule(
    schedule: PipelineSchedule,
    costs: Union[StageCosts, Sequence[StageCosts]],
    p2p_bandwidth_bytes_per_s: float = float("inf"),
    p2p_latency_s: float = 0.0,
    pcie_bandwidth_bytes_per_s: float = 16e9,
    engine: str = "fast",
    validate: bool = False,
) -> PipelineTimeline:
    """Evaluate a schedule with the fast path (memoized) or the event engine.

    The candidate scorer (:func:`repro.parallel.search.score_candidate`)
    calls it for every candidate except a jittered one whose replicas batch,
    which takes its deterministic timeline from row 0 of the Monte-Carlo
    sweep instead.  ``engine="fast"`` (the default) runs the
    memoized critical-path evaluator; ``engine="event"`` runs the
    discrete-event simulator, always fresh -- the oracle must never be
    served from a cache.
    ``validate=True`` runs both and raises :class:`FastPathMismatchError` on
    any divergence.

    Returned fast-path timelines may be shared cache entries: treat them as
    immutable, as every caller in this codebase already does.
    """
    if engine not in ("fast", "event"):
        raise ValueError(f"unknown engine {engine!r}; expected 'fast' or 'event'")
    if engine == "event" and not validate:
        return simulate_pipeline(
            schedule, costs,
            p2p_bandwidth_bytes_per_s=p2p_bandwidth_bytes_per_s,
            p2p_latency_s=p2p_latency_s,
            pcie_bandwidth_bytes_per_s=pcie_bandwidth_bytes_per_s,
        )
    per_stage = tuple(_normalise_costs(schedule, costs))
    key = _structure_key(schedule)
    if key is not None:
        fast = _cached_fast_timeline(
            *key, per_stage,
            p2p_bandwidth_bytes_per_s, p2p_latency_s, pcie_bandwidth_bytes_per_s,
        )
    else:
        fast = critical_path_timeline(
            schedule, per_stage,
            p2p_bandwidth_bytes_per_s=p2p_bandwidth_bytes_per_s,
            p2p_latency_s=p2p_latency_s,
            pcie_bandwidth_bytes_per_s=pcie_bandwidth_bytes_per_s,
        )
    if validate:
        oracle = simulate_pipeline(
            schedule, costs,
            p2p_bandwidth_bytes_per_s=p2p_bandwidth_bytes_per_s,
            p2p_latency_s=p2p_latency_s,
            pcie_bandwidth_bytes_per_s=pcie_bandwidth_bytes_per_s,
        )
        _check_against_oracle(fast, oracle)
        if engine == "event":
            return oracle
    return fast


def pipeline_lower_bound(
    schedule: PipelineSchedule,
    costs: Union[StageCosts, Sequence[StageCosts]],
    p2p_bandwidth_bytes_per_s: float = float("inf"),
    p2p_latency_s: float = 0.0,
) -> float:
    """:func:`pipeline_lower_bound_for_shape` of a built schedule."""
    return pipeline_lower_bound_for_shape(
        schedule.kind, schedule.num_stages, schedule.num_micro_batches,
        schedule.num_chunks, costs,
        p2p_bandwidth_bytes_per_s=p2p_bandwidth_bytes_per_s,
        p2p_latency_s=p2p_latency_s,
    )


def pipeline_lower_bound_for_shape(
    kind: ScheduleKind,
    num_stages: int,
    num_micro_batches: int,
    num_chunks: int,
    costs: Union[StageCosts, Sequence[StageCosts]],
    p2p_bandwidth_bytes_per_s: float = float("inf"),
    p2p_latency_s: float = 0.0,
) -> float:
    """A cheap analytic lower bound on the schedule's simulated makespan.

    Takes the schedule *shape* rather than a built schedule: the bound only
    depends on ``(kind, p, m, v)`` and the per-stage costs, which is what
    lets the candidate loops prune a schedule without ever materialising its
    O(p m v) op lists.  It is deliberately *order-independent* -- every term
    below holds for any op order a kind could run, so the bound stays a valid
    floor for cost-aware ZB-V wavefronts no matter which wave ratio shaped
    them (the ratio never enters the bound).

    Three classical bounds, maximised (all are valid for every schedule kind
    this package builds -- under both placements rank ``r``'s earliest
    possible op is the forward of virtual stage ``r``, and for fused schedules
    each rank's last op is the gradient-producing backward of chunk 0):

    * **fill + max-stage work**: rank ``r`` cannot start before micro-batch 0
      has been forwarded through virtual stages ``0..r-1`` (compute plus P2P
      hops), and must then execute all of its ops back-to-back at best --
      the rank's work sums its virtual stages under the schedule's placement
      (:func:`~repro.sim.schedules.virtual_stage_ranks`), so a V placement
      charges rank ``r`` stages ``r`` and ``2p - 1 - r``;
    * **gradient drain** (fused kinds only): after rank ``r``'s final
      backward, its gradient still cascades through every upstream stage --
      the zero-bubble kinds overlap that cascade with their trailing
      grad-weight ops, so the term is dropped there;
    * **single micro-batch traversal**: one micro-batch's forward chain down
      the pipeline plus its backward(-input) chain back, with each hop routed
      through the placement map (V-placed neighbours fold back onto the same
      rank, where the hop is free).

    The result is scaled down by :data:`LOWER_BOUND_SAFETY` so float rounding
    can never make the "bound" exceed the true makespan; pruning on
    ``bound >= incumbent`` is therefore conservative and can never change
    which candidate a search selects (property-tested exhaustively).

    The offload/prefetch streams are ignored -- they only ever delay compute,
    so omitting them keeps the bound valid.
    """
    p = num_stages
    m = num_micro_batches
    num_virtual = p * num_chunks
    if isinstance(costs, StageCosts):
        per_stage = [costs] * num_virtual
    else:
        per_stage = list(costs)
        if len(per_stage) != num_virtual:
            raise ValueError(
                f"expected {num_virtual} per-virtual-stage costs, got {len(per_stage)}"
            )

    def hop(src_rank: int, dst_rank: int, num_bytes: float) -> float:
        if src_rank == dst_rank or num_bytes <= 0:
            return 0.0
        return p2p_latency_s + num_bytes / p2p_bandwidth_bytes_per_s

    vs_rank = virtual_stage_ranks(kind, num_stages, num_chunks)
    rank_work = [0.0] * p
    for vs in range(num_virtual):
        stage = per_stage[vs]
        rank_work[vs_rank[vs]] += m * (
            stage.forward_s + stage.recompute_s + stage.backward_s
        )

    forward_chain = 0.0   # fill path: forward of mb 0 through stages 0..r-1
    backward_chain = 0.0  # drain path: grad cascade through stages r-1..0
    best = 0.0
    split = kind.splits_backward
    for rank in range(p):
        bound = forward_chain + rank_work[rank]
        if not split:
            bound += backward_chain
        best = max(best, bound)
        if rank < p - 1:
            # Virtual stages 0..p-1 live on ranks 0..p-1 under both
            # placements, so the fill/drain chains index stages by rank.
            stage = per_stage[rank]
            forward_chain += stage.forward_s + hop(rank, rank + 1, stage.p2p_bytes)
            backward_chain += (
                stage.recompute_s + stage.backward_s
                + hop(rank + 1, rank, stage.p2p_bytes)
            )

    traversal = 0.0
    for vs in range(num_virtual):
        stage = per_stage[vs]
        traversal += stage.forward_s + stage.recompute_s
        traversal += stage.split_backward_input_s if split else stage.backward_s
        if vs < num_virtual - 1:
            traversal += 2.0 * hop(vs_rank[vs], vs_rank[vs + 1], stage.p2p_bytes)
    best = max(best, traversal)
    return best * (1.0 - LOWER_BOUND_SAFETY)


def fastpath_cache_info() -> Dict[str, object]:
    """Hit/miss statistics of the schedule, timeline and program caches."""
    return {
        "schedules": cached_build_schedule.cache_info(),
        "timelines": _cached_fast_timeline.cache_info(),
        "programs": _cached_schedule_program.cache_info(),
    }


def clear_fastpath_caches() -> None:
    """Drop all memoized schedules, timelines and programs (tests, benches).

    The failure walk's arrival memo, the Monte-Carlo replica draws and
    multiplier planes, the skeletal-bytes memo, the strategy-lowering memo
    (:data:`repro.systems.base._LOWERINGS`) and the memory-planning memos
    (iteration traces, DSA problems with their heuristic plans, MEMO's
    prepared plans) go too, so a cleared process redraws every failure trace
    and jitter replica, re-lowers every strategy and re-plans every memory
    shape exactly as a fresh one would.

    Also advances the cache generation: schedules returned before the clear
    keep their ``_canonical`` marker but their generation stamp is retired,
    so :func:`_structure_key` stops routing them through the refilled
    timeline and program caches.
    """
    from repro.core.framework import MemoFramework
    from repro.model.activations import skeletal_bytes_per_layer
    from repro.model.trace import _full_model_trace
    from repro.planner.dsa import _problem_from_trace
    from repro.sim.costs import clear_stage_profile_store
    from repro.sim.failures import clear_failure_arrival_memo
    from repro.sim.stochastic import _replica_multipliers, _replica_variates
    from repro.systems.base import clear_lowering_memo

    cached_build_schedule.cache_clear()  # bumps the generation
    _cached_fast_timeline.cache_clear()
    _cached_schedule_program.cache_clear()
    clear_stage_profile_store()
    clear_failure_arrival_memo()
    _replica_variates.cache_clear()
    _replica_multipliers.cache_clear()
    skeletal_bytes_per_layer.cache_clear()
    clear_lowering_memo()
    _full_model_trace.cache_clear()
    _problem_from_trace.cache_clear()
    MemoFramework._prepare.cache_clear()


# --------------------------------------------------------------------------
# Cross-run cache persistence (the fleet planner's warm start)
#
# The memoized layers above die with the process, so every planner invocation
# re-derives schedule op lists, timelines and stage profiles another process
# already computed.  The functions below snapshot those layers to one pickle
# payload and prime them back -- answer-preserving because every entry is the
# deterministic builder output for its key, and counter-invisible because
# priming bypasses the hit/miss statistics the benchmark guards compare
# exactly.  Compiled programs are not persisted: unpickling one costs about as
# much as compiling it from its (persisted) schedule.

#: Bump when the payload layout changes; part of the version stamp.
FASTPATH_CACHE_SCHEMA = 2

#: Cached :func:`_cache_version_stamp` result (the stamp hashes source files,
#: which cannot change under a running process).
_VERSION_STAMP: Optional[str] = None


class FastpathCacheWarning(UserWarning):
    """A persisted fast-path cache could not be used (cold start instead)."""


def _cache_version_stamp() -> str:
    """Schema + code fingerprint a persisted payload must match to load.

    Hashes the source of every module whose outputs the payload stores
    (schedule builder, program compiler, timeline evaluator, cost model):
    any edit to them invalidates old payloads, so a stale cache can never
    serve entries a newer evaluator would compute differently.
    """
    global _VERSION_STAMP
    if _VERSION_STAMP is None:
        from repro.sim import costs, pipeline, schedules

        digest = hashlib.sha256(f"schema={FASTPATH_CACHE_SCHEMA}".encode())
        sources = [schedules.__file__, pipeline.__file__, costs.__file__, __file__]
        for path in sources:
            if path and os.path.exists(path):
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _VERSION_STAMP = digest.hexdigest()
    return _VERSION_STAMP


def _restamp_schedule(schedule: PipelineSchedule) -> None:
    """Mark an unpickled canonical schedule as canonical *here and now*.

    Pickling preserves the saving process's generation stamp, which is
    meaningless in this process; the entry is the deterministic builder
    output for its key, so it re-earns the live generation's marker and
    routes through the timeline/program caches exactly like a locally built
    instance.
    """
    object.__setattr__(schedule, "_canonical", True)
    object.__setattr__(schedule, "_canonical_generation", _CACHE_GENERATION)


def snapshot_fastpath_caches() -> Dict[str, Dict[tuple, object]]:
    """Export the live entries of every persisted cache layer, by layer name."""
    from repro.sim.costs import stage_profile_store_entries

    return {
        "schedules": _cached_build_schedule_inner.entries(),
        "timelines": _cached_fast_timeline.entries(),
        "stage_profiles": stage_profile_store_entries(),
    }


def prime_fastpath_caches(layers: Dict[str, Dict[tuple, object]]) -> int:
    """Inject snapshot entries into the live caches; returns entries added.

    Schedules (standalone and embedded in timelines) are re-stamped
    to the live cache generation, counters stay untouched, and keys already
    resident win -- so priming can only *skip* work, never change an answer.
    """
    from repro.sim.costs import prime_stage_profile_store

    primed = 0
    for key, schedule in layers.get("schedules", {}).items():
        _restamp_schedule(schedule)
        primed += _cached_build_schedule_inner.prime(key, schedule)
    for key, timeline in layers.get("timelines", {}).items():
        _restamp_schedule(timeline.schedule)
        primed += _cached_fast_timeline.prime(key, timeline)
    primed += prime_stage_profile_store(layers.get("stage_profiles", {}))
    return primed


def save_fastpath_caches(
    path: Union[str, os.PathLike],
    layers: Optional[Dict[str, Dict[tuple, object]]] = None,
    merge: bool = True,
) -> int:
    """Persist cache entries to ``path`` (atomic); returns entries written.

    Merges with an existing same-version payload at ``path`` (resident file
    entries win ties, mirroring :meth:`_PersistentLRU.prime`), writes to a
    sibling temp file and ``os.replace``\\ s it into place so concurrent
    writers each leave a complete payload and readers never observe a torn
    file.  Any I/O or pickling failure degrades to a warning -- a planner
    run must never die because its cache directory is unwritable.

    ``merge=False`` skips re-reading the resident payload -- for callers
    that already primed from this exact file and can prove it is unchanged
    (the fleet planner stats it), re-deserialising it only to merge entries
    the live caches already hold would double the save cost.
    """
    path = os.fspath(path)
    if layers is None:
        layers = snapshot_fastpath_caches()
    existing = _read_cache_payload(path, quiet=True) if merge else None
    if existing is not None:
        for name, entries in existing["layers"].items():
            merged = dict(layers.get(name, {}))
            merged.update(entries)  # resident file entries win ties
            layers[name] = merged
    payload = {"version": _cache_version_stamp(), "layers": layers}
    directory = os.path.dirname(path) or "."
    try:
        os.makedirs(directory, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp",
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
    except Exception as error:
        warnings.warn(
            f"could not persist fast-path caches to {path!r}: {error}",
            FastpathCacheWarning,
            stacklevel=2,
        )
        return 0
    return sum(len(entries) for entries in layers.values())


def _read_cache_payload(path: str, quiet: bool = False) -> Optional[dict]:
    """Load and validate a persisted payload; ``None`` means cold start.

    A missing file is a normal cold start (silent); a corrupt payload or a
    version-stamp mismatch warns (unless ``quiet``) and also falls back to
    ``None`` -- the caller recomputes, it never crashes and never uses stale
    entries.
    """
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        if (
            not isinstance(payload, dict)
            or not isinstance(payload.get("layers"), dict)
            or "version" not in payload
        ):
            raise ValueError("malformed cache payload")
    except FileNotFoundError:
        return None
    except Exception as error:
        if not quiet:
            warnings.warn(
                f"ignoring unreadable fast-path cache {path!r} "
                f"(cold start): {error}",
                FastpathCacheWarning,
                stacklevel=3,
            )
        return None
    if payload["version"] != _cache_version_stamp():
        if not quiet:
            warnings.warn(
                f"ignoring fast-path cache {path!r} written by a different "
                "code version (cold start)",
                FastpathCacheWarning,
                stacklevel=3,
            )
        return None
    return payload


def load_fastpath_caches(path: Union[str, os.PathLike]) -> int:
    """Prime the live caches from a persisted payload; returns entries added.

    The warm-start entry point: a missing file is a silent cold start, a
    corrupt or version-stale payload is a *warned* cold start, and in every
    case the subsequent computation is bit-identical to a cold run -- the
    cache only decides whether structures are rebuilt or reused.
    """
    payload = _read_cache_payload(os.fspath(path))
    if payload is None:
        return 0
    try:
        return prime_fastpath_caches(payload["layers"])
    except Exception as error:
        warnings.warn(
            f"could not prime fast-path caches from {path!r} "
            f"(cold start): {error}",
            FastpathCacheWarning,
            stacklevel=2,
        )
        return 0
