"""Frozen-formula pin of the Monte-Carlo distribution statistics.

:class:`MakespanDistribution` (jitter) and :class:`TimeToTrainDistribution`
(failures) report the same statistics of their ``samples``.  The search
ranks candidates by these numbers, so a change of float order (a different
summation, a different rank rounding) could flip an argmax.  The property
tests below hold both types to a frozen copy of the formulas, bit for bit:

* nearest-rank percentile on the sorted samples,
  ``ordered[max(ceil(q / 100 * n), 1) - 1]``, with ``q`` in ``(0, 100]``;
* the ``math.fsum`` mean and the worst-5% tail mean (cvar95);
* every risk objective's score -- time-to-train scores divided by the
  target iteration count;
* the 95% CI half-width estimators of the sequential-stopping rule;
* the sorted-keys hex-float JSON bytes.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.failures import (
    TTRAIN_OBJECTIVES,
    FailureSpec,
    RecoveryModel,
    TimeToTrainDistribution,
)
from repro.sim.stochastic import RISK_OBJECTIVES, JitterSpec, MakespanDistribution

JITTER = JitterSpec(compute_sigma=0.05, straggler_prob=0.1)
FAILURES = FailureSpec(mtbf_s=5000.0, correlated_prob=0.3)
RECOVERY = RecoveryModel(checkpoint_write_s=20.0, restart_overhead_s=100.0)

_Z_95 = 1.959963984540054


# ----------------------------------------------------------- frozen formulas
def _frozen_percentile(samples, q):
    ordered = sorted(samples)
    rank = max(int(math.ceil(q / 100.0 * len(ordered))), 1)
    return ordered[rank - 1]


def _frozen_mean(samples):
    return math.fsum(samples) / len(samples)


def _frozen_cvar95(samples):
    ordered = sorted(samples)
    cut = max(int(math.ceil(0.95 * len(ordered))), 1) - 1
    tail = ordered[cut:]
    return math.fsum(tail) / len(tail)


def _frozen_statistic(samples, base):
    if base == "mean":
        return _frozen_mean(samples)
    if base == "cvar":
        return _frozen_cvar95(samples)
    return _frozen_percentile(samples, {"p50": 50.0, "p95": 95.0, "p99": 99.0}[base])


def _frozen_ci_halfwidth(samples, base):
    n = len(samples)
    if n < 2:
        return math.inf
    ordered = sorted(samples)
    if base == "mean":
        mean = math.fsum(ordered) / n
        var = math.fsum((x - mean) ** 2 for x in ordered) / (n - 1)
        return _Z_95 * math.sqrt(var / n)
    if base == "cvar":
        cut = max(int(math.ceil(0.95 * n)), 1) - 1
        tail = ordered[cut:]
        if len(tail) < 2:
            return math.inf
        mean = math.fsum(tail) / len(tail)
        var = math.fsum((x - mean) ** 2 for x in tail) / (len(tail) - 1)
        return _Z_95 * math.sqrt(var / len(tail))
    q = {"p50": 0.5, "p95": 0.95, "p99": 0.99}[base]
    rank = max(int(math.ceil(q * n)), 1) - 1
    spread = _Z_95 * math.sqrt(n * q * (1.0 - q))
    lo = max(int(math.floor(rank - spread)), 0)
    hi = min(int(math.ceil(rank + spread)), n - 1)
    return (ordered[hi] - ordered[lo]) / 2.0


def _makespan(samples):
    return MakespanDistribution(
        samples=tuple(samples), bubble_samples=(0.25,) * len(samples),
        deterministic_total_s=1.0, lower_bound_s=0.5, seed=3, spec=JITTER,
        target_ci_halfwidth=0.125,
    )


def _ttrain(samples, target_iterations):
    return TimeToTrainDistribution(
        samples=tuple(samples), failure_counts=tuple(range(len(samples))),
        ideal_s=1.0, target_iterations=target_iterations,
        checkpoint_interval_s=600.0, seed=3, spec=FAILURES, recovery=RECOVERY,
    )


_SAMPLES = st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=40,
)
_QUANTILES = st.one_of(
    st.just(100.0),
    st.floats(min_value=0.0, max_value=100.0, exclude_min=True),
)


class TestFrozenFormulas:
    @settings(max_examples=200, deadline=None)
    @given(samples=_SAMPLES, q=_QUANTILES, target=st.integers(1, 5000))
    @example(samples=[2.0], q=100.0, target=1)
    @example(samples=[3.0, 1.0], q=50.0, target=7)
    @example(samples=[3.0, 1.0], q=1e-9, target=7)
    @example(samples=[0.1, 0.2, 0.3], q=100.0, target=3)
    def test_statistics_match_the_frozen_formulas(self, samples, q, target):
        for dist in (_makespan(samples), _ttrain(samples, target)):
            assert dist.replicas == len(samples)
            assert dist.percentile(q) == _frozen_percentile(samples, q)
            assert dist.percentile(100) == max(samples)
            assert dist.mean_s == _frozen_mean(samples)
            assert dist.p50_s == _frozen_percentile(samples, 50.0)
            assert dist.p95_s == _frozen_percentile(samples, 95.0)
            assert dist.p99_s == _frozen_percentile(samples, 99.0)
            assert dist.cvar95_s == _frozen_cvar95(samples)

    @settings(max_examples=200, deadline=None)
    @given(samples=_SAMPLES, target=st.integers(1, 5000))
    @example(samples=[1.0, 1.0, 1.0, 1.0], target=1)
    @example(samples=[0.1, 0.7, 0.3], target=3)
    def test_scores_match_the_frozen_formulas(self, samples, target):
        makespan = _makespan(samples)
        for objective in RISK_OBJECTIVES:
            assert makespan.score(objective) == _frozen_statistic(samples, objective)
            assert makespan.ci_halfwidth_s(objective) == \
                _frozen_ci_halfwidth(samples, objective)
        ttrain = _ttrain(samples, target)
        for objective in TTRAIN_OBJECTIVES:
            base = objective[len("ttrain_"):]
            assert ttrain.statistic(base) == _frozen_statistic(samples, base)
            assert ttrain.score(objective) == _frozen_statistic(samples, base) / target

    @settings(max_examples=100, deadline=None)
    @given(samples=_SAMPLES, target=st.integers(1, 5000))
    def test_json_bytes_match_the_frozen_layout(self, samples, target):
        makespan = _makespan(samples)
        assert makespan.to_json() == json.dumps({
            "samples": [value.hex() for value in samples],
            "bubble_samples": [(0.25).hex()] * len(samples),
            "deterministic_total_s": (1.0).hex(),
            "lower_bound_s": (0.5).hex(),
            "seed": 3,
            "spec": JITTER.to_json_dict(),
            "target_ci_halfwidth": (0.125).hex(),
        }, sort_keys=True)
        assert MakespanDistribution.from_json(makespan.to_json()) == makespan
        ttrain = _ttrain(samples, target)
        assert ttrain.to_json() == json.dumps({
            "samples": [value.hex() for value in samples],
            "failure_counts": list(range(len(samples))),
            "ideal_s": (1.0).hex(),
            "target_iterations": target,
            "checkpoint_interval_s": (600.0).hex(),
            "seed": 3,
            "spec": FAILURES.to_json_dict(),
            "recovery": RECOVERY.to_json_dict(),
        }, sort_keys=True)
        assert TimeToTrainDistribution.from_json(ttrain.to_json()) == ttrain

    @pytest.mark.parametrize("q", [0.0, -1.0, 100.5, float("nan")])
    def test_percentile_outside_the_range_is_rejected(self, q):
        for dist in (_makespan([1.0, 2.0]), _ttrain([1.0, 2.0], 4)):
            with pytest.raises(ValueError):
                dist.percentile(q)

    def test_unknown_objectives_are_rejected(self):
        with pytest.raises(ValueError):
            _makespan([1.0, 2.0]).score("p42")
        with pytest.raises(ValueError):
            _ttrain([1.0, 2.0], 4).score("p99")
        with pytest.raises(ValueError):
            _ttrain([1.0, 2.0], 4).statistic("p42")
