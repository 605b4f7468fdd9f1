"""Exact offline-DSA solver.

The paper formulates the per-layer placement problem as a Mixed Integer
Program and solves it with Gurobi.  Gurobi is not available offline, so this
module provides two interchangeable exact back-ends:

* a depth-first **branch-and-bound** search over placement orders with strong
  pruning against the live-bytes lower bound and the best heuristic solution;
* the same MIP formulation expressed for :func:`scipy.optimize.milp`
  (HiGHS), usable for small instances.

Both back-ends are exact for the instances they are given; the branch-and-bound
search is the default because it needs no big-M constants and is faster for
the layer-sized instances the bi-level planner produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.planner.dsa import DSAProblem, DSATensor
from repro.planner.heuristics import solve_heuristic
from repro.planner.plan import MemoryPlan, PlanEntry


@dataclass(frozen=True)
class ExactSolverOptions:
    """Options controlling the exact solver.

    Attributes:
        max_nodes: search-node budget for branch-and-bound; when exhausted the
            best incumbent found so far is returned (still a valid plan, and in
            practice optimal for layer-sized instances).
        backend: "branch-and-bound" or "milp".
        milp_time_limit_s: time limit handed to the HiGHS MILP backend.
    """

    max_nodes: int = 200_000
    backend: str = "branch-and-bound"
    milp_time_limit_s: float = 30.0


def solve_exact(problem: DSAProblem, options: Optional[ExactSolverOptions] = None) -> MemoryPlan:
    """Solve an offline DSA instance to (near-)optimality.

    The returned plan is always valid; its peak equals the live-bytes lower
    bound whenever the search proves optimality (which it does for all
    instances used by the bi-level planner's tests).
    """
    options = options or ExactSolverOptions()
    if options.backend == "milp":
        return _solve_milp(problem, options)
    if options.backend != "branch-and-bound":
        raise ValueError(f"unknown exact backend {options.backend!r}")
    return _solve_branch_and_bound(problem, options)


# --------------------------------------------------------------------------- B&B
def _solve_branch_and_bound(problem: DSAProblem, options: ExactSolverOptions) -> MemoryPlan:
    incumbent = solve_heuristic(problem)
    lower_bound = problem.lower_bound_bytes()
    if incumbent.peak_bytes <= lower_bound:
        return MemoryPlan.union([incumbent], solver="exact-bb")

    tensors = sorted(problem.tensors, key=lambda t: (-t.size, t.start, t.tensor_id))
    best_plan = incumbent
    best_peak = incumbent.peak_bytes
    nodes_visited = 0

    placed: Dict[str, Tuple[DSATensor, PlanEntry]] = {}

    def recurse(index: int, current_peak: int) -> None:
        nonlocal best_plan, best_peak, nodes_visited
        if nodes_visited >= options.max_nodes:
            return
        nodes_visited += 1
        if current_peak >= best_peak:
            return
        if index == len(tensors):
            best_plan = MemoryPlan.of((entry for _, entry in placed.values()), "exact-bb")
            best_peak = current_peak
            return
        tensor = tensors[index]
        neighbours = [entry for other, entry in placed.values()
                      if other.start < tensor.end and tensor.start < other.end]
        # Addresses worth trying: 0 and the end of every conflicting placement.
        for address in sorted({0, *(entry.end for entry in neighbours)}):
            end = address + tensor.size
            if end >= best_peak or any(address < e.end and e.address < end for e in neighbours):
                continue
            entry = PlanEntry(tensor.tensor_id, address, tensor.size)
            placed[tensor.tensor_id] = (tensor, entry)
            recurse(index + 1, max(current_peak, entry.end))
            del placed[tensor.tensor_id]
            if best_peak <= lower_bound:
                return

    recurse(0, 0)
    problem.validate_plan(best_plan)
    return MemoryPlan.union([best_plan], solver="exact-bb")


# -------------------------------------------------------------------------- MILP
def _solve_milp(problem: DSAProblem, options: ExactSolverOptions) -> MemoryPlan:
    """Solve the paper's MIP formulation with scipy's HiGHS MILP backend.

    Variables: ``A_i`` (address of tensor i), ``M`` (peak), and one binary
    ``z_ij`` per conflicting pair ordering the pair in address space.
    """
    from scipy.optimize import LinearConstraint, milp, Bounds  # local import: scipy is heavy

    tensors: Tuple[DSATensor, ...] = problem.tensors
    n = len(tensors)
    if n == 0:
        return MemoryPlan(solver="exact-milp")
    index = {t.tensor_id: i for i, t in enumerate(tensors)}
    conflicts = sorted(problem.conflicts)
    capacity = float(sum(t.size for t in tensors))  # big-M: total bytes is always enough

    # Variable layout: [A_0..A_{n-1}, M, z_0..z_{k-1}]
    num_vars = n + 1 + len(conflicts)
    peak_index = n

    cost = np.zeros(num_vars)
    cost[peak_index] = 1.0

    rows = []
    lower = []
    upper = []

    # A_i + S_i <= M   ->   A_i - M <= -S_i
    for i, tensor in enumerate(tensors):
        row = np.zeros(num_vars)
        row[i] = 1.0
        row[peak_index] = -1.0
        rows.append(row)
        lower.append(-np.inf)
        upper.append(-float(tensor.size))

    # For each conflict (i, j) with binary z:
    #   A_i + S_i <= A_j + z * cap      ->  A_i - A_j - cap * z <= -S_i
    #   A_j + S_j <= A_i + (1-z) * cap  ->  A_j - A_i + cap * z <= cap - S_j
    for k, (id_a, id_b) in enumerate(conflicts):
        i = index[id_a]
        j = index[id_b]
        z = n + 1 + k
        row = np.zeros(num_vars)
        row[i] = 1.0
        row[j] = -1.0
        row[z] = -capacity
        rows.append(row)
        lower.append(-np.inf)
        upper.append(-float(tensors[i].size))

        row = np.zeros(num_vars)
        row[j] = 1.0
        row[i] = -1.0
        row[z] = capacity
        rows.append(row)
        lower.append(-np.inf)
        upper.append(capacity - float(tensors[j].size))

    constraints = LinearConstraint(np.array(rows), np.array(lower), np.array(upper))
    integrality = np.zeros(num_vars)
    integrality[n + 1:] = 1  # z variables are binary
    variable_bounds = Bounds(
        lb=np.zeros(num_vars),
        ub=np.concatenate([
            np.full(n, capacity),
            np.array([capacity]),
            np.ones(len(conflicts)),
        ]),
    )
    result = milp(
        c=cost,
        constraints=constraints,
        integrality=integrality,
        bounds=variable_bounds,
        options={"time_limit": options.milp_time_limit_s},
    )
    if not result.success or result.x is None:
        # Fall back to branch-and-bound rather than failing the planning pass.
        return _solve_branch_and_bound(problem, options)
    plan = MemoryPlan.of(
        (PlanEntry(tensor.tensor_id, int(round(result.x[i])), tensor.size) for i, tensor in enumerate(tensors)),
        "exact-milp",
    )
    problem.validate_plan(plan)
    return plan
