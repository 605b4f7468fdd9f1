"""Heuristic offline-DSA solvers.

For the per-layer sub-problem the exact MIP is tractable, but validating the
planner at scale (or planning arbitrary traces) benefits from fast,
deterministic heuristics.  Two classical strategies are provided:

* **best fit over address gaps** in chronological (malloc) order, which mirrors
  how a well-informed online allocator would behave; and
* **first-fit decreasing** over tensor sizes, the standard offline DSA
  heuristic with good worst-case behaviour.

Both return plans guaranteed valid (no conflicting tensors overlap); only the
peak memory is heuristic.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.planner.dsa import DSAProblem, DSATensor
from repro.planner.plan import MemoryPlan, PlanEntry


def _solve_in_order(problem: DSAProblem, order: List[DSATensor], best_fit: bool, name: str) -> MemoryPlan:
    """Place ``order`` one by one, each clear of its placed conflicting tensors.

    With ``best_fit`` the smallest gap that fits is chosen (lowest address on
    ties); otherwise the lowest feasible address is used (first fit).  With no
    bounded gap that fits, the tensor goes above every conflicting region.
    """
    plan = MemoryPlan(solver=name)
    placed: Dict[str, Tuple[int, int]] = {}
    for tensor in order:
        size = tensor.size
        spans = [placed[other] for other in problem.neighbours[tensor.tensor_id] if other in placed]
        spans.sort()
        # One pass over the address-sorted spans: a gap opens only where a span
        # starts above the highest end seen so far, so no merging is needed.
        address = best_gap = None
        cursor = 0
        for start, end in spans:
            gap = start - cursor
            if gap >= size and (best_gap is None or gap < best_gap):
                address, best_gap = cursor, gap
                if not best_fit:
                    break
            if end > cursor:
                cursor = end
        if address is None:
            address = cursor
        plan.add(PlanEntry(tensor_id=tensor.tensor_id, address=address, size=size))
        placed[tensor.tensor_id] = (address, address + size)
    problem.validate_plan(plan)
    return plan


def solve_best_fit(problem: DSAProblem) -> MemoryPlan:
    """Place tensors in allocation order, best-fitting each into the gaps."""
    order = sorted(problem.tensors, key=lambda t: (t.start, -t.size, t.tensor_id))
    return _solve_in_order(problem, order, best_fit=True, name="best-fit")


def solve_first_fit_decreasing(problem: DSAProblem) -> MemoryPlan:
    """Place tensors from largest to smallest at the lowest feasible address."""
    order = sorted(problem.tensors, key=lambda t: (-t.size, t.start, t.tensor_id))
    return _solve_in_order(problem, order, best_fit=False, name="first-fit-decreasing")


def solve_heuristic(problem: DSAProblem) -> MemoryPlan:
    """Run both heuristics and keep the plan with the smaller peak."""
    candidates = [solve_best_fit(problem), solve_first_fit_decreasing(problem)]
    return min(candidates, key=lambda plan: plan.peak_bytes)
