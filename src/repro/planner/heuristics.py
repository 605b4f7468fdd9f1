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

from bisect import insort
from typing import List, Tuple

from repro.planner.dsa import DSAProblem, DSATensor
from repro.planner.plan import MemoryPlan, PlanEntry


def _solve_in_order(problem: DSAProblem, order: List[DSATensor], best_fit: bool, name: str) -> MemoryPlan:
    """Place ``order`` one by one, each clear of its placed conflicting tensors.

    With ``best_fit`` the smallest gap that fits is chosen (lowest address on
    ties); otherwise the lowest feasible address is used (first fit).  With no
    bounded gap that fits, the tensor goes above every conflicting region.
    """
    entries: List[PlanEntry] = []
    placed: List[Tuple[int, int, int, int]] = []  # address-sorted (address, end, start, end)
    for tensor in order:
        size, start, end = tensor.size, tensor.start, tensor.end
        # One pass over the address-sorted conflicting spans: a gap opens only
        # where a span starts above the highest end seen so far.
        cursor = 0
        if best_fit:
            # In start order every placed tensor starts no later than this one:
            # it conflicts iff live at ``start``, and never again once it is not.
            placed = [span for span in placed if start < span[3]]
            address = best_gap = None
            for low, high, _, _ in placed:
                gap = low - cursor
                if gap >= size and (best_gap is None or gap < best_gap):
                    address, best_gap = cursor, gap
                if high > cursor:
                    cursor = high
            if address is None:
                address = cursor
        else:
            for low, high, s, e in placed:
                if s < end and start < e:
                    if low - cursor >= size:
                        break
                    if high > cursor:
                        cursor = high
            address = cursor
        entries.append(PlanEntry(tensor.tensor_id, address, size))
        insort(placed, (address, address + size, start, end))
    plan = MemoryPlan.of(entries, name)
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
    """Run both heuristics and keep the plan with the smaller peak (once per problem)."""
    return problem.heuristic_plan
