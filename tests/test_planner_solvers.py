"""Tests for the heuristic and exact offline-DSA solvers."""

import pytest

from repro.planner.dsa import DSATensor, problem_from_tensors, problem_from_trace
from repro.planner.exact import ExactSolverOptions, solve_exact
from repro.planner.heuristics import solve_best_fit, solve_first_fit_decreasing, solve_heuristic


def interval_problem():
    """A small instance whose optimum (120) beats naive stacking (170)."""
    return problem_from_tensors([
        DSATensor("a", size=100, start=0, end=4),
        DSATensor("b", size=20, start=2, end=6),
        DSATensor("c", size=100, start=5, end=9),
        DSATensor("d", size=20, start=8, end=12),
    ])


class TestHeuristics:
    def test_best_fit_produces_valid_plan(self, small_layer_trace):
        problem = problem_from_trace(small_layer_trace)
        plan = solve_best_fit(problem)
        problem.validate_plan(plan)
        assert plan.peak_bytes >= problem.lower_bound_bytes()

    def test_first_fit_decreasing_produces_valid_plan(self, small_layer_trace):
        problem = problem_from_trace(small_layer_trace)
        plan = solve_first_fit_decreasing(problem)
        problem.validate_plan(plan)

    def test_heuristic_reuses_addresses_of_disjoint_tensors(self):
        problem = interval_problem()
        plan = solve_heuristic(problem)
        problem.validate_plan(plan)
        # a and c never coexist, so their regions can overlap and the peak is
        # far below the total size.
        assert plan.peak_bytes <= 140
        assert plan.peak_bytes < problem.total_bytes

    def test_non_conflicting_tensors_may_share_space(self):
        problem = problem_from_tensors([
            DSATensor("x", size=64, start=0, end=2),
            DSATensor("y", size=64, start=3, end=5),
        ])
        plan = solve_heuristic(problem)
        assert plan.peak_bytes == 64

    def test_empty_problem(self):
        problem = problem_from_tensors([])
        assert solve_heuristic(problem).peak_bytes == 0


class TestExactSolver:
    def test_exact_reaches_lower_bound_on_small_instance(self):
        problem = interval_problem()
        plan = solve_exact(problem)
        problem.validate_plan(plan)
        assert plan.peak_bytes == problem.lower_bound_bytes()

    def test_exact_never_worse_than_heuristic(self, small_layer_trace):
        problem = problem_from_trace(small_layer_trace)
        exact = solve_exact(problem)
        heuristic = solve_heuristic(problem)
        problem.validate_plan(exact)
        assert exact.peak_bytes <= heuristic.peak_bytes

    def test_exact_on_layer_trace_hits_live_bytes_bound(self, small_layer_trace):
        problem = problem_from_trace(small_layer_trace)
        plan = solve_exact(problem)
        assert plan.peak_bytes == problem.lower_bound_bytes()

    def test_search_beats_both_heuristics(self):
        # Both heuristics peak at 25 B; only the branch-and-bound search finds 22 B.
        problem = problem_from_tensors([
            DSATensor("t0", 7, 3, 7), DSATensor("t1", 4, 4, 8), DSATensor("t2", 5, 2, 5),
            DSATensor("t3", 6, 3, 4), DSATensor("t4", 9, 5, 6),
        ])
        assert solve_heuristic(problem).peak_bytes == 25
        plan = solve_exact(problem)
        problem.validate_plan(plan)
        assert plan.peak_bytes == 22

    def test_node_budget_still_returns_valid_plan(self):
        problem = interval_problem()
        plan = solve_exact(problem, ExactSolverOptions(max_nodes=1))
        problem.validate_plan(plan)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            solve_exact(interval_problem(), ExactSolverOptions(backend="gurobi"))


class TestMilpBackend:
    def test_milp_matches_branch_and_bound(self):
        problem = problem_from_tensors([
            DSATensor("a", size=10, start=0, end=3),
            DSATensor("b", size=20, start=1, end=4),
            DSATensor("c", size=10, start=3, end=6),
        ])
        bnb = solve_exact(problem, ExactSolverOptions(backend="branch-and-bound"))
        milp = solve_exact(problem, ExactSolverOptions(backend="milp", milp_time_limit_s=10))
        problem.validate_plan(milp)
        assert milp.peak_bytes == bnb.peak_bytes == problem.lower_bound_bytes()

    def test_milp_empty_problem(self):
        problem = problem_from_tensors([])
        plan = solve_exact(problem, ExactSolverOptions(backend="milp"))
        assert plan.peak_bytes == 0
