"""The fleet driver: plan a workload grid point by point, stay warm on disk.

:func:`plan_fleet` runs one full ``pipeline_schedule="auto"`` strategy search
per grid point, in-process and in grid order, and collates the answers into a
:class:`FleetReport`.  Three properties the tests pin down:

* **bit-identity** -- every per-point strategy and iteration time equals a
  standalone single-workload run of the same training system: the disk cache
  only decides whether schedule structures are rebuilt or reused (entries are
  pure functions of their keys), so warmth cannot change an answer;
* **per-point error capture** -- an infeasible or crashing point records its
  error string in its row; the remaining points still run and the report
  still collates deterministically;
* **warning collation** -- each point's warnings are captured instead of
  emitted; the report carries one deduplicated list, in point order.

Cache flow: the run loads the persisted payload once (the report's
``loaded_entries``), consecutive points share the live caches, and one atomic
save at the end persists everything.  The save merges whatever another
invocation persisted since the load, and concurrent invocations only race
atomic ``os.replace`` calls (last writer wins a complete payload; the loser's
entries are re-derived on the next warm run).
"""

from __future__ import annotations

import os
import time
import traceback
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.fleet.grid import SearchSettings, WorkloadGrid, WorkloadPoint
from repro.jsonutil import dumps_stable, hex_float
from repro.sim.fastpath import (
    fastpath_cache_info,
    load_fastpath_caches,
    save_fastpath_caches,
    snapshot_fastpath_caches,
)
from repro.systems.base import TrainingReport

#: Default location of the cross-run cache payload.
DEFAULT_CACHE_DIR = os.path.join("~", ".cache", "repro-planner")

#: File name of the cache payload inside the cache directory.
CACHE_FILE_NAME = "fastpath-cache.pkl"


def resolve_cache_path(cache_dir: Optional[Union[str, os.PathLike]]) -> str:
    """The cache payload path for a cache directory (default: user cache)."""
    directory = os.path.expanduser(
        os.fspath(cache_dir) if cache_dir is not None else DEFAULT_CACHE_DIR
    )
    return os.path.join(directory, CACHE_FILE_NAME)


@dataclass(frozen=True)
class PointOutcome:
    """One grid point's collated result (answer or captured error)."""

    point: WorkloadPoint
    ok: bool
    report: Optional[TrainingReport] = None
    error: Optional[str] = None
    duration_s: float = 0.0
    warnings: Tuple[str, ...] = ()
    #: Per-layer ``(hits, misses)`` deltas of the fast-path caches over this
    #: point's search.
    cache_counters: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """One machine-readable report row (see ``docs/fleet-planner.md``)."""
        report = self.report
        row = {
            "point": self.point.to_json_dict(),
            "label": self.point.label(),
            "ok": self.ok,
            "error": self.error,
            "duration_s": self.duration_s,
            "cache_counters": {
                layer: list(delta) for layer, delta in sorted(self.cache_counters.items())
            },
            "strategy": None,
            "iteration_time_s": None,
            "schedule_kind": None,
            "pareto_points": None,
            "report": None,
        }
        if report is not None:
            row["strategy"] = (
                report.parallel.describe() if report.parallel is not None else None
            )
            row["iteration_time_s"] = hex_float(report.iteration_time_s)
            row["schedule_kind"] = (
                report.schedule_kind.value if report.schedule_kind is not None else None
            )
            row["pareto_points"] = (
                len(report.pareto_frontier) if report.pareto_frontier is not None else 0
            )
            row["report"] = report.to_json_dict()
        return row


@dataclass(frozen=True)
class FleetReport:
    """All point outcomes in grid order, plus collated warnings and cache
    accounting -- the machine-readable product of :func:`plan_fleet`."""

    grid: WorkloadGrid
    outcomes: Tuple[PointOutcome, ...]
    cache_path: Optional[str]
    loaded_entries: int
    saved_entries: int
    #: Warning messages deduplicated across every point, in point order.
    warnings: Tuple[str, ...] = ()

    @property
    def failed(self) -> Tuple[PointOutcome, ...]:
        return tuple(outcome for outcome in self.outcomes if not outcome.ok)

    def to_json_dict(self) -> dict:
        return {
            "schema": 2,
            "search": self.grid.search.to_json_dict(),
            "cache": {
                "path": self.cache_path,
                "loaded_entries": self.loaded_entries,
                "saved_entries": self.saved_entries,
            },
            "warnings": list(self.warnings),
            "points": [outcome.to_json_dict() for outcome in self.outcomes],
        }

    def to_json(self) -> str:
        """Stable (sorted-keys) JSON string of :meth:`to_json_dict`."""
        return dumps_stable(self.to_json_dict())


def _counter_deltas(before: Dict[str, object]) -> Dict[str, Tuple[int, int]]:
    """Hit/miss growth of every fast-path cache since the ``before`` snapshot."""
    after = fastpath_cache_info()
    return {
        layer: (info.hits - before[layer].hits, info.misses - before[layer].misses)
        for layer, info in after.items()
    }


def _search_point(point: WorkloadPoint, search: SearchSettings) -> PointOutcome:
    """Run one point's strategy search, capturing errors and warnings."""
    counters_before = fastpath_cache_info()
    started = time.perf_counter()
    captured: List[str] = []
    error: Optional[str] = None
    report: Optional[TrainingReport] = None
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        try:
            report = search.build_system().run(point.workload())
        except Exception:
            error = traceback.format_exc(limit=20)
    captured.extend(str(record.message) for record in records)
    outcome = PointOutcome(
        point=point,
        ok=error is None,
        report=report,
        error=error,
        duration_s=time.perf_counter() - started,
        warnings=tuple(captured),
        cache_counters=_counter_deltas(counters_before),
    )
    return outcome


def _resident_entries() -> int:
    """Entries held by the persisted fast-path cache layers right now."""
    return sum(len(entries) for entries in snapshot_fastpath_caches().values())


def plan_fleet(
    grid: WorkloadGrid,
    workers: int = 1,
    cache_dir: Optional[Union[str, os.PathLike]] = None,
    use_disk_cache: bool = True,
    progress: Optional[Callable[[PointOutcome], None]] = None,
) -> FleetReport:
    """Plan every point of a workload grid in order; warm and deterministic.

    Args:
        grid: the expanded workload grid (points + shared search settings).
        workers: must be 0 or 1 -- points always run in-process, one after
            another, so consecutive points share the live caches.
        cache_dir: directory of the cross-run cache payload
            (``~/.cache/repro-planner`` by default).
        use_disk_cache: when False, neither loads nor saves the payload --
            each invocation is a pure cold start.
        progress: optional callback invoked with each :class:`PointOutcome`
            as it completes, in grid-point order.

    Returns:
        A :class:`FleetReport` with outcomes in grid-point order.
    """
    if workers not in (0, 1):
        raise ValueError(
            f"workers must be 0 or 1 (got {workers}): points run in-process"
        )
    cache_path = resolve_cache_path(cache_dir) if use_disk_cache else None
    loaded = 0
    loaded_stat: Optional[Tuple[int, int]] = None
    resident_after_load = 0
    if cache_path:
        # Stat before loading: a save landing in between then reads as a
        # changed file (an extra merge), never as an unchanged one whose
        # entries the final save could drop.
        try:
            stat = os.stat(cache_path)
            loaded_stat = (stat.st_mtime_ns, stat.st_size)
        except OSError:
            loaded_stat = None
        loaded = load_fastpath_caches(cache_path)
        resident_after_load = _resident_entries()

    outcomes = []
    for point in grid.points:
        outcome = _search_point(point, grid.search)
        outcomes.append(outcome)
        if progress is not None:
            progress(outcome)

    saved = 0
    if cache_path:
        # When the payload provably has not changed since we primed from it
        # (same stat; any concurrent writer changes it), the live caches are
        # a superset of the file: the save-time merge read is redundant, and
        # if the run added nothing beyond what it loaded, so is the save
        # itself -- a fully warm rerun then costs one deserialisation total.
        file_unchanged = False
        if loaded_stat is not None:
            try:
                stat = os.stat(cache_path)
                file_unchanged = (stat.st_mtime_ns, stat.st_size) == loaded_stat
            except OSError:
                file_unchanged = False
        if file_unchanged and _resident_entries() == resident_after_load:
            saved = loaded
        else:
            saved = save_fastpath_caches(cache_path, merge=not file_unchanged)

    deduped: List[str] = []
    seen = set()
    for outcome in outcomes:
        for message in outcome.warnings:
            if message not in seen:
                seen.add(message)
                deduped.append(message)

    return FleetReport(
        grid=grid,
        outcomes=tuple(outcomes),
        cache_path=cache_path,
        loaded_entries=loaded,
        saved_entries=saved,
        warnings=tuple(deduped),
    )
