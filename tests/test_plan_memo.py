"""Tests for the per-process memos of the memory-planning path.

The iteration trace, the DSA problem (with its heuristic plan) and MEMO's
prepared plan are memoized on their true inputs.  Every answer must be the
same bytes warm, after ``clear_fastpath_caches()`` and with no memo at all;
shared results must be read-only; and malformed shapes must fail before any
memo key is formed.
"""

import dataclasses

import pytest

import repro.model.trace as trace_module
import repro.planner.dsa as dsa_module
from repro.config import PLAN_MEMO_SIZE, PrecisionConfig
from repro.core.framework import MemoFramework
from repro.hardware.cluster import make_a800_cluster
from repro.model.specs import get_model_config
from repro.model.trace import full_model_trace
from repro.parallel.strategy import OffloadMode, ParallelismConfig, RecomputeMode
from repro.planner.bilevel import BiLevelPlanner
from repro.planner.dsa import problem_from_trace
from repro.planner.heuristics import solve_heuristic
from repro.planner.plan import PlanEntry
from repro.sim.fastpath import clear_fastpath_caches

_MODEL = get_model_config("7B")
_CLUSTER = make_a800_cluster(8)
_PARALLEL = ParallelismConfig(
    tensor_parallel=4, context_parallel=2, data_parallel=1,
    recompute=RecomputeMode.TOKEN_WISE, offload=OffloadMode.TOKEN_WISE,
)
_LENGTHS = (512, 1024, 1536)
#: Two precisions and four alphas (``0.0`` and ``-0.0`` among them) per shape:
#: a memo key that drops either one serves the first value's answer for the others.
_PRECISIONS = (PrecisionConfig(), PrecisionConfig(activation_bytes=4))
_ALPHAS = (None, 0.25, -0.0, 0.0)
_MEMOS = (trace_module._full_model_trace, dsa_module._problem_from_trace, MemoFramework._prepare)


def _framework(length, exact=False, precision=_PRECISIONS[0]):
    return MemoFramework(_MODEL, _CLUSTER, _PARALLEL, sequence_length=2 * length,
                         use_exact_planner=exact, precision=precision)


def _trace(length, skeletal=True, precision=_PRECISIONS[0]):
    return full_model_trace(_MODEL, 1, length, num_layers=2, precision=precision,
                            include_skeletal=skeletal)


def _plan_bytes(plan):
    return repr((plan.solver, plan.peak_bytes, list(plan.entries.items())))


def _prepared_bytes(prepared):
    planning = prepared.planning
    details = planning.details
    return repr((
        prepared.profile, prepared.alpha, prepared.schedule, planning.layer_peak_bytes,
        planning.total_peak_bytes, planning.solver, _plan_bytes(planning.plan),
        _plan_bytes(details.layer_forward_plan), _plan_bytes(details.layer_backward_plan),
        _plan_bytes(details.model_plan),
    ))


def _answers(lengths):
    """Every memoized answer over the grid, as bytes, in the given order."""
    answers = {}
    for length in lengths:
        for precision in _PRECISIONS:
            for skeletal in (True, False):
                trace = _trace(length, skeletal, precision)
                key = (length, precision, skeletal)
                answers[("trace",) + key] = repr(trace)
                answers[("heuristic",) + key] = _plan_bytes(solve_heuristic(problem_from_trace(trace)))
            for exact in (True, False):
                framework = _framework(length, exact, precision)
                for alpha in _ALPHAS:
                    answers[("prepare", length, precision, exact, repr(alpha))] = (
                        _prepared_bytes(framework.prepare(alpha)))
    return answers


def _disable_memos(monkeypatch):
    monkeypatch.setattr(trace_module, "_full_model_trace", trace_module._full_model_trace.__wrapped__)
    monkeypatch.setattr(dsa_module, "_problem_from_trace", dsa_module._problem_from_trace.__wrapped__)
    monkeypatch.setattr(MemoFramework, "_prepare", MemoFramework._prepare.__wrapped__)


class TestPlanMemo:
    """Each memory shape is planned once per process; every answer stays
    byte-identical in any order, warm, cold or unmemoized."""

    def test_answers_identical_in_any_order_warm_cold_and_unmemoized(self, monkeypatch):
        clear_fastpath_caches()
        ascending = _answers(_LENGTHS)
        descending = _answers(_LENGTHS[::-1])
        clear_fastpath_caches()
        cold = _answers(_LENGTHS)
        _disable_memos(monkeypatch)
        unmemoized = _answers(_LENGTHS)
        assert ascending == descending == cold == unmemoized
        # The grid's keys reach distinct answers, so a dropped key component shows.
        prepared = {ascending[("prepare", 512, p, False, repr(a))] for p in _PRECISIONS for a in _ALPHAS}
        assert len(prepared) == 8
        traces = {ascending[("trace", 512, precision, True)] for precision in _PRECISIONS}
        assert len(traces) == 2

    def test_repeated_shape_shares_one_result(self):
        clear_fastpath_caches()
        trace = _trace(1024)
        assert _trace(1024) is trace
        assert problem_from_trace(list(trace)) is problem_from_trace(trace)
        assert solve_heuristic(problem_from_trace(trace)) is solve_heuristic(problem_from_trace(trace))
        prepared = _framework(1024).prepare(0.25)
        assert _framework(1024).prepare(0.25) is prepared
        assert _framework(1024).prepare(0.25).schedule.alpha == 0.25
        assert _framework(1024).prepare(-0.0) is not _framework(1024).prepare(0.0)

    def test_clear_fastpath_caches_empties_every_memo(self):
        trace = _trace(1024)
        problem = problem_from_trace(trace)
        prepared = _framework(1024).prepare()
        assert all(memo.cache_info().currsize for memo in _MEMOS)
        clear_fastpath_caches()
        assert not any(memo.cache_info().currsize for memo in _MEMOS)
        assert _trace(1024) is not trace
        assert problem_from_trace(trace) is not problem
        assert _framework(1024).prepare() is not prepared

    def test_eviction_past_the_bound_changes_no_answer(self):
        clear_fastpath_caches()
        lengths = [256 + 16 * index for index in range(PLAN_MEMO_SIZE + 1)]
        first_trace = full_model_trace(_MODEL, 1, lengths[0], num_layers=1)
        first_plan = _plan_bytes(solve_heuristic(problem_from_trace(first_trace)))
        first_prepared = _prepared_bytes(_framework(lengths[0]).prepare())
        for length in lengths[1:]:
            solve_heuristic(problem_from_trace(full_model_trace(_MODEL, 1, length, num_layers=1)))
            _framework(length).prepare()
        assert all(memo.cache_info().currsize == PLAN_MEMO_SIZE for memo in _MEMOS)
        again = full_model_trace(_MODEL, 1, lengths[0], num_layers=1)
        assert again is not first_trace and again == first_trace
        assert _plan_bytes(solve_heuristic(problem_from_trace(again))) == first_plan
        assert _prepared_bytes(_framework(lengths[0]).prepare()) == first_prepared
        clear_fastpath_caches()


class TestSharedResultsAreReadOnly:
    def test_trace_is_a_tuple(self):
        trace = _trace(1024)
        assert isinstance(trace, tuple)
        with pytest.raises(AttributeError):
            trace.append(trace[0])

    def test_heuristic_plan_rejects_mutation_and_leaks_nothing(self):
        trace = _trace(1024)
        plan = solve_heuristic(problem_from_trace(trace))
        before = _plan_bytes(plan)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.peak_bytes = 0
        with pytest.raises(TypeError):
            plan.entries["extra"] = PlanEntry("extra", plan.peak_bytes, 64)
        assert _plan_bytes(solve_heuristic(problem_from_trace(trace))) == before
        assert "extra" not in plan

    def test_prepared_plan_rejects_mutation_and_leaks_nothing(self):
        prepared = _framework(1024, exact=True).prepare()
        before = _prepared_bytes(prepared)
        for plan in (prepared.planning.plan, prepared.planning.details.layer_forward_plan,
                     prepared.planning.details.model_plan):
            with pytest.raises(TypeError):
                plan.entries["extra"] = PlanEntry("extra", plan.peak_bytes, 64)
        with pytest.raises(AttributeError):
            prepared.schedule.layers.append(prepared.schedule.layers[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            _framework(1024).sequence_length = 4096
        assert _prepared_bytes(_framework(1024, exact=True).prepare()) == before

    @pytest.mark.parametrize("name, value", [("peak_bytes", 0), ("solver", "poisoned")])
    def test_prepared_plan_cannot_be_rebound(self, name, value):
        plan = _framework(1024).prepare().planning.plan
        peak, solver = plan.peak_bytes, plan.solver
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(plan, name, value)
        again = _framework(1024).prepare().planning.plan
        assert again is plan
        assert (again.peak_bytes, again.solver) == (peak, solver) and peak > 0


class TestShapeValidation:
    """Malformed shapes fail before a memo key is formed (``1024.0`` and
    ``True`` would otherwise share the entries of ``1024`` and ``1``)."""

    @pytest.mark.parametrize("kwargs", [
        {"num_layers": -1}, {"num_layers": 2.0}, {"num_layers": True},
        {"sequence_length": 1000.5}, {"sequence_length": 1024.0}, {"sequence_length": 0},
        {"sequence_length": True}, {"batch_size": 0}, {"batch_size": 1.0}, {"batch_size": True},
    ], ids=repr)
    def test_full_model_trace_rejects(self, kwargs):
        shape = dict(batch_size=1, sequence_length=1024, num_layers=2)
        shape.update(kwargs)
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            full_model_trace(_MODEL, **shape)

    def test_full_model_trace_accepts_zero_layers(self):
        assert len(full_model_trace(_MODEL, 1, 1024, num_layers=0)) == 8

    @pytest.mark.parametrize("kwargs", [
        {"sequence_length": True}, {"sequence_length": 65536.0}, {"sequence_length": 0},
        {"batch_size": 0}, {"batch_size": 2.0}, {"batch_size": True},
    ], ids=repr)
    def test_memo_framework_rejects(self, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            MemoFramework(_MODEL, _CLUSTER, _PARALLEL, **kwargs)

    def test_for_workload_rejects_a_boolean_sequence_length(self):
        with pytest.raises(ValueError, match="sequence_length must be an int"):
            MemoFramework.for_workload("7B", True, 8)

    @pytest.mark.parametrize("kwargs", [
        {"sequence_length": 1024.0}, {"sequence_length": 0}, {"sequence_length": True},
        {"batch_size": 0}, {"batch_size": 1.5}, {"batch_size": True},
    ], ids=repr)
    def test_bilevel_planner_rejects(self, kwargs):
        shape = dict(batch_size=1, sequence_length=1024)
        shape.update(kwargs)
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            BiLevelPlanner(_MODEL, **shape)
