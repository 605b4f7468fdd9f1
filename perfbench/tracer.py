"""Out-of-process span tracer for the planner benchmark.

The program under test carries no instrumentation.  :func:`install` wraps the
public functions named in :data:`LAYERS` from outside: each wrapper replaces
the original object at every place the program looks the name up (every
``repro.*`` module attribute bound to it, or the class attribute for a
method), so calls made through a re-exported or imported name are traced too.
Wrappers copy the wrapped function's attributes, which keeps introspection
surfaces such as ``cache_info`` / ``cache_clear`` working.

Spans live in memory as ``(function, start_ns, end_ns, parent, query)``
tuples and are written out once, when the session ends.  Self time is a
span's duration minus the durations of its direct children; it is
accumulated while the span closes, so reading the profile costs nothing
extra.  A query is opened with :meth:`Tracer.query`, whose own self time is
the query's unattributed time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple


def _file_bytes(bound, result):
    path = bound.arguments["path"]
    try:
        return {"cache_file_bytes": os.path.getsize(path)}
    except OSError:
        return {}


def _schedule_ops(bound, result):
    return {"ops_built": sum(len(ops) for ops in result.rank_ops)}


def _replicas_drawn(bound, result):
    return {"replicas_drawn": result.replicas, "replicas_cap": bound.arguments["replicas"]}


#: The traced layers: module name -> [(defining module, attribute path,
#: metric name, observer)].  The metric name is ``<module>.<name>``; an
#: observer turns a call's bound arguments and result into counter increments.
LAYERS: Dict[str, List[Tuple[str, str, str, Optional[Callable]]]] = {
    "systems.base": [
        ("repro.systems.base", "TrainingSystem.run", "run", None),
        ("repro.systems.base", "TrainingSystem.stage_execution", "stage_execution", None),
        ("repro.systems.base", "TrainingSystem.strategy_lower_bound", "strategy_lower_bound", None),
        ("repro.systems.base", "StageExecution.stage_costs_for_shape",
         "StageExecution.stage_costs_for_shape", None),
    ],
    "parallel.search": [
        ("repro.parallel.search", "enumerate_strategies", "enumerate_strategies", None),
        ("repro.parallel.search", "find_best_strategy", "find_best_strategy", None),
    ],
    "parallel.memory_model": [
        ("repro.parallel.memory_model", "estimate_memory", "estimate_memory", None),
    ],
    "sim.costs": [
        ("repro.sim.costs", "CostModel.layer_costs", "layer_costs", None),
        ("repro.sim.costs", "CostModel.stage_cost_profile", "stage_cost_profile", None),
        ("repro.sim.costs", "uneven_layer_partition", "uneven_layer_partition", None),
    ],
    "swap": [
        ("repro.swap.schedule", "build_swap_schedule", "build_swap_schedule", None),
        ("repro.swap.alpha", "solve_alpha", "solve_alpha", None),
    ],
    "sim.executor": [
        ("repro.sim.executor", "simulate_iteration", "simulate_iteration", None),
    ],
    "sim.schedules": [
        ("repro.sim.schedules", "build_schedule", "build_schedule", _schedule_ops),
        ("repro.sim.schedules", "PipelineSchedule.validate", "PipelineSchedule.validate", None),
        ("repro.sim.schedules", "PipelineSchedule.peak_in_flight", "peak_in_flight", None),
        ("repro.sim.schedules", "PipelineSchedule.peak_deferred_weights",
         "peak_deferred_weights", None),
    ],
    "sim.fastpath": [
        ("repro.sim.fastpath", "evaluate_schedule", "evaluate_schedule", None),
        ("repro.sim.fastpath", "critical_path_timeline", "critical_path_timeline", None),
        ("repro.sim.fastpath", "pipeline_lower_bound_for_shape",
         "pipeline_lower_bound_for_shape", None),
        ("repro.sim.fastpath", "compile_schedule_program", "compile_schedule_program", None),
        ("repro.sim.fastpath", "critical_path_timeline_batch", "critical_path_timeline_batch",
         lambda bound, result: {"batch_rows": result.batch_size}),
    ],
    "sim.stochastic": [
        ("repro.sim.stochastic", "monte_carlo_timeline", "monte_carlo_timeline",
         _replicas_drawn),
    ],
    "sim.failures": [
        ("repro.sim.failures", "simulate_time_to_train", "simulate_time_to_train",
         lambda bound, result: {"walk_replicas": result.replicas}),
    ],
    "fleet": [
        ("repro.fleet.grid", "WorkloadGrid.from_spec", "WorkloadGrid.from_spec", None),
        ("repro.fleet.planner", "plan_fleet", "plan_fleet", None),
        ("repro.sim.fastpath", "load_fastpath_caches", "load_fastpath_caches",
         lambda bound, result: {"entries_loaded": result}),
        ("repro.sim.fastpath", "save_fastpath_caches", "save_fastpath_caches",
         lambda bound, result: dict(_file_bytes(bound, result), entries_saved=result)),
    ],
    "model.trace": [
        ("repro.model.trace", "full_model_trace", "full_model_trace",
         lambda bound, result: {"requests": len(result)}),
    ],
    "planner": [
        ("repro.planner.dsa", "problem_from_trace", "problem_from_trace", None),
        ("repro.planner.heuristics", "solve_heuristic", "solve_heuristic", None),
        ("repro.planner.bilevel", "BiLevelPlanner.plan", "BiLevelPlanner.plan", None),
    ],
    "memory": [
        ("repro.memory.caching_allocator", "CachingAllocator.replay",
         "CachingAllocator.replay", None),
    ],
}

#: Name of the synthetic root span opened around every query.
QUERY = "query"


class Tracer:
    """In-memory span recorder with online self-time accounting."""

    def __init__(self) -> None:
        self.names: List[str] = [QUERY]
        self.calls: List[int] = [0]
        self.self_ns: List[int] = [0]
        self.spans: List[Tuple[int, int, int, int, int]] = []
        self.counters: Dict[str, float] = {}
        self.errors: Dict[str, int] = {}
        self.missing: List[str] = []
        self._stack: List[list] = []  # [span index, child ns]
        self._query_id = -1

    def register(self, layer: str, name: str) -> int:
        self.names.append(f"{layer}.{name}")
        self.calls.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _open(self, index: int) -> int:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((index, time.perf_counter_ns(), 0, parent, self._query_id))
        span = len(self.spans) - 1
        self._stack.append([span, 0])
        return span

    def _close(self, span: int) -> None:
        end = time.perf_counter_ns()
        _, child_ns = self._stack.pop()
        index, start, _, parent, query = self.spans[span]
        self.spans[span] = (index, start, end, parent, query)
        duration = end - start
        self.calls[index] += 1
        self.self_ns[index] += duration - child_ns
        if self._stack:
            self._stack[-1][1] += duration

    def query(self, query_id: int, call: Callable[[], object]) -> object:
        """Run one query under a root span."""
        self._query_id = query_id
        span = self._open(0)
        try:
            return call()
        finally:
            self._close(span)

    def wrap(self, layer: str, name: str, func: Callable,
             observer: Optional[Callable]) -> Callable:
        index = self.register(layer, name)
        signature = inspect.signature(func) if observer is not None else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self._open(index)
            try:
                result = func(*args, **kwargs)
            except BaseException as error:
                counted = getattr(error, "_perfbench_layers", None)
                if counted is None:
                    counted = set()
                    try:
                        error._perfbench_layers = counted
                    except AttributeError:
                        pass
                if layer not in counted:
                    counted.add(layer)
                    self.errors[layer] = self.errors.get(layer, 0) + 1
                raise
            finally:
                self._close(span)
            if observer is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in observer(bound, result).items():
                    self.count(f"{layer}.{key}", value)
            return result

        return traced

    def export(self, since: int) -> dict:
        """Cumulative counts plus the spans recorded after span ``since``."""
        return {
            "calls": self.calls, "self_ns": self.self_ns, "counters": self.counters,
            "errors": self.errors, "spans": self.spans[since:],
        }

    def absorb(self, exported: dict) -> None:
        """Adopt the state a forked child exported (this state plus its own)."""
        self.calls = exported["calls"]
        self.self_ns = exported["self_ns"]
        self.counters = exported["counters"]
        self.errors = exported["errors"]
        self.spans.extend(tuple(span) for span in exported["spans"])

    # ------------------------------------------------------------- reporting
    def profile(self) -> dict:
        """Per-function calls/self time, counters and errors of this session."""
        return {
            "functions": {
                name: {"calls": self.calls[i], "self_ns": self.self_ns[i]}
                for i, name in enumerate(self.names)
            },
            "counters": dict(self.counters),
            "errors": dict(self.errors),
            "missing": list(self.missing),
        }

    def write(self, path: str) -> None:
        """Write every span as ``[name, start_ns, end_ns, parent, query]``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "names": self.names,
                "spans": [list(span) for span in self.spans],
            }, handle, separators=(",", ":"))


def _resolve(module_name: str, path: str):
    """(owner, attribute, raw object) of ``path`` inside a module, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attribute = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(attribute)
    else:
        raw = getattr(owner, attribute, None)
    if raw is None:
        return None
    return owner, attribute, raw


def install(tracer: Tracer) -> None:
    """Wrap every function of :data:`LAYERS` at all of its lookup sites.

    A name that no longer exists is recorded in ``tracer.missing`` (and
    reported as missing, never as zero calls).
    """
    for layer, entries in LAYERS.items():
        for module_name, path, name, observer in entries:
            found = _resolve(module_name, path)
            if found is None:
                tracer.missing.append(f"{layer}.{name}")
                continue
            owner, attribute, raw = found
            if isinstance(owner, type):
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(tracer.wrap(layer, name, raw.__func__, observer))
                else:
                    wrapped = tracer.wrap(layer, name, raw, observer)
                setattr(owner, attribute, wrapped)
                continue
            wrapped = tracer.wrap(layer, name, raw, observer)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").split(".")[0] != "repro":
                    continue
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapped)
