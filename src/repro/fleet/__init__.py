"""Fleet planner: batch strategy search over workload grids.

Turns the single-workload planner into a service-shaped subsystem: a
:class:`~repro.fleet.grid.WorkloadGrid` expands a JSON/YAML spec into
deterministic, deduplicated workload points; :func:`~repro.fleet.planner.plan_fleet`
plans them one after another in-process, with per-point error capture; a
disk-backed cache (``repro.sim.fastpath.save_fastpath_caches`` /
``load_fastpath_caches``) keeps schedule structures, timelines and stage
profiles warm across runs.  Every per-point answer is bit-identical to a
standalone single-workload search -- cold or warm.
"""

from repro.fleet.grid import (
    GridSpecError,
    SearchSettings,
    WorkloadGrid,
    WorkloadPoint,
)
from repro.fleet.planner import (
    DEFAULT_CACHE_DIR,
    FleetReport,
    PointOutcome,
    plan_fleet,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "FleetReport",
    "GridSpecError",
    "PointOutcome",
    "SearchSettings",
    "WorkloadGrid",
    "WorkloadPoint",
    "plan_fleet",
]
