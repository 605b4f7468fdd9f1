"""Stochastic, failure-aware evaluation of pipeline schedules.

Both evaluators in this package are deterministic, so a search over them
optimizes a mean that real clusters never deliver: stragglers, jittery links
and preemptions routinely invert schedule decisions won by a 1% margin.  This
module adds the missing layer -- seeded perturbation models, Monte-Carlo
replication and a risk-adjusted score -- without touching either engine:

* a perturbation is a **pure** ``StageCosts -> StageCosts`` transform
  (:func:`perturb_stage_costs`): every draw produces an ordinary per-stage
  cost vector, which the existing critical-path fast evaluator scores
  unchanged, so the ``fast == event`` equivalence invariant holds *per draw*
  (property-tested in ``tests/test_properties_fastpath.py``).  The jitter
  formula has one owner, :func:`_multiplier_planes`: a draw's multipliers,
  one plane per cost field, which scale a candidate's cost columns into
  :class:`~repro.sim.fastpath.CostPlanes` for the batched sweep and into
  ``StageCosts`` rows for the scalar one, with the same IEEE products;
* every multiplier the models draw is **>= 1** (folded lognormal compute
  jitter, Pareto-tailed straggler multipliers, folded lognormal link
  inflation), so each draw's makespan is at least the deterministic makespan
  and the analytic lower bound of :func:`repro.sim.fastpath.pipeline_lower_bound`
  stays a valid floor for *every* replica -- which is exactly what keeps
  bound-based pruning conservative under a risk-adjusted objective;
* all randomness flows through ``numpy.random.Generator`` seeded with
  ``(seed, replica)`` seed sequences: the same seed reproduces the same
  :class:`MakespanDistribution` bit for bit, across cache clears and across
  processes, and replica ``r``'s draws are independent of how many replicas
  run before or after it -- so :func:`monte_carlo_timeline` draws each
  ``(seed, replica, ranks, stages)`` once per process and shares the
  read-only arrays between every candidate it scores;
* draws consume a **fixed number of variates** regardless of the spec's
  parameter values: the underlying normal/uniform draws are made first and
  the spec's scales are applied after, so two specs that differ only in
  scale see the *same* underlying noise -- perturbations (and therefore
  makespans, the recurrence being monotone in every duration) are pointwise
  coupled and monotone in each jitter scale, which the statistical test
  suite asserts per seed rather than merely in expectation.

On top sits :func:`monte_carlo_timeline` (replicated evaluation returning a
:class:`MakespanDistribution` with p50/p95/p99, CVaR and bubble variance,
scored by the ``"mean" | "p50" | "p95" | "p99" | "cvar"`` risk objectives
the strategy search consumes).  The sample statistics, the replica budget
and its sequential-stopping rule (:class:`SampleStatistics`,
:class:`ReplicaBudget`) are shared with the time-to-train walk of
:mod:`repro.sim.failures`.

Monte-Carlo draws are evaluated through the critical-path executors
directly, *never* through the memoized ``evaluate_schedule`` wrapper: each
draw's cost vector is unique, so routing replicas through the lru caches
would evict the deterministic search's working set without ever hitting
(the bench guard in ``scripts/bench_search.py`` checks the deterministic
cache counters are untouched by the stochastic layer).  A batched run's
deterministic timeline is row 0 of its own sweep, so it skips that cache
too.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import require_count
from repro.jsonutil import (
    from_hex_float,
    from_hex_floats,
    hex_float,
    hex_floats,
    opt_from_hex_float,
    opt_hex_float,
)

from repro.sim.fastpath import (
    CostPlanes,
    _check_against_oracle,
    compile_schedule_program,
    critical_path_timeline,
    critical_path_timeline_batch,
    pipeline_lower_bound,
)
from repro.sim.pipeline import (
    PipelineTimeline, StageCosts, _normalise_costs, simulate_pipeline,
)
from repro.sim.schedules import PipelineSchedule

#: Risk objectives the search may optimize.  ``"mean"`` reproduces the
#: deterministic selection when jitter is disabled; the percentile objectives
#: score the tail; ``"cvar"`` is the expected makespan of the worst 5% of
#: draws (the conditional value-at-risk at the 95% level).
RISK_OBJECTIVES: Tuple[str, ...] = ("mean", "p50", "p95", "p99", "cvar")

#: Default Monte-Carlo replication factor of the risk-adjusted search paths.
DEFAULT_REPLICAS = 16

#: Fewest replicas a sequential-stopping run evaluates before consulting the
#: CI half-width: variance estimates from fewer draws are too noisy to stop on.
MIN_SEQUENTIAL_REPLICAS = 8

#: Two-sided 95% normal quantile used by the CI half-width estimators.
_Z_95 = 1.959963984540054

#: Default Pareto tail index of the straggler model.  ``alpha = 3`` keeps the
#: mean multiplier finite (``alpha / (alpha - 1) = 1.5``) while producing the
#: occasional 2-4x straggler that real clusters exhibit; smaller values
#: fatten the tail.
DEFAULT_STRAGGLER_ALPHA = 3.0


@dataclass(frozen=True)
class JitterSpec:
    """Parameters of the seeded perturbation model.

    Every model multiplies a cost by a factor **>= 1** -- jitter can only
    slow a stage down, never speed it up -- so the deterministic makespan
    and the analytic lower bound remain floors for every draw.

    Attributes:
        compute_sigma: scale of the folded-lognormal jitter on per-stage
            compute times (forward and backward each draw their own
            ``exp(sigma * |z|)`` multiplier; recompute and the grad-weight
            share scale with the backward multiplier so the zero-bubble
            B/W split is preserved).
        straggler_prob: probability that a *rank* is a straggler in a draw;
            a straggler rank's compute times (every virtual stage placed on
            it, via the schedule's placement map) are multiplied by a
            Pareto-tailed factor ``(1 - u) ** (-1 / alpha) >= 1``.
        straggler_alpha: Pareto tail index of the straggler multiplier
            (smaller = fatter tail).
        link_sigma: scale of the folded-lognormal inflation of the
            inter-stage P2P payload (``p2p_bytes``), modelling jittery or
            congested links; transfer latency and PCIe traffic are left to
            their deterministic parameters.
        swap_sigma: scale of the folded-lognormal inflation of the per-stage
            swap traffic (``offload_bytes`` D2H and ``prefetch_bytes`` H2D
            each draw their own multiplier), modelling contended PCIe /
            host-memory bandwidth under MEMO-style activation offload.
    """

    compute_sigma: float = 0.0
    straggler_prob: float = 0.0
    straggler_alpha: float = DEFAULT_STRAGGLER_ALPHA
    link_sigma: float = 0.0
    swap_sigma: float = 0.0

    def __post_init__(self) -> None:
        for name in ("compute_sigma", "link_sigma", "swap_sigma"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative (got {value})")
        if not math.isfinite(self.straggler_prob) or not 0.0 <= self.straggler_prob <= 1.0:
            raise ValueError(
                f"straggler_prob must lie in [0, 1] (got {self.straggler_prob})"
            )
        if not math.isfinite(self.straggler_alpha) or self.straggler_alpha <= 0:
            raise ValueError(
                f"straggler_alpha must be positive (got {self.straggler_alpha})"
            )

    @property
    def is_null(self) -> bool:
        """True when every perturbation is the identity (zero jitter)."""
        return (
            self.compute_sigma == 0.0
            and self.straggler_prob == 0.0
            and self.link_sigma == 0.0
            and self.swap_sigma == 0.0
        )

    def describe(self) -> str:
        """The spec back in :func:`parse_jitter_spec`'s grammar (``"0"`` if null)."""
        if self.is_null:
            return "0"
        parts = []
        if self.compute_sigma:
            parts.append(f"compute={self.compute_sigma:g}")
        if self.link_sigma:
            parts.append(f"link={self.link_sigma:g}")
        if self.swap_sigma:
            parts.append(f"swap={self.swap_sigma:g}")
        if self.straggler_prob:
            parts.append(f"straggler={self.straggler_prob:g}:{self.straggler_alpha:g}")
        return ",".join(parts)

    def to_json_dict(self) -> dict:
        """Hex-float mapping; exact inverse of :meth:`from_json_dict`."""
        return {
            f.name: hex_float(getattr(self, f.name)) for f in dataclass_fields(self)
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "JitterSpec":
        """Rebuild a spec serialized by :meth:`to_json_dict`."""
        return cls(**{f.name: from_hex_float(data[f.name]) for f in dataclass_fields(cls)})


#: The zero-jitter spec: perturbation is the identity, every Monte-Carlo draw
#: collapses onto the deterministic fast path bit for bit.
NULL_JITTER = JitterSpec()


def parse_jitter_spec(text: str) -> JitterSpec:
    """Parse the CLI / config jitter grammar into a :class:`JitterSpec`.

    Grammar (all parts optional, comma-separated)::

        <sigma>                      -- shorthand for compute=<sigma>
        compute=<sigma>              -- folded-lognormal compute jitter
        link=<sigma>                 -- folded-lognormal P2P payload inflation
        swap=<sigma>                 -- folded-lognormal D2H/H2D swap inflation
        straggler=<prob>[:<alpha>]   -- per-rank Pareto straggler model

    Examples: ``0.05``, ``compute=0.05,link=0.02``, ``swap=0.1``,
    ``compute=0.05,straggler=0.1:2.5``.  ``0`` parses to the null spec.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty jitter spec")
    fields = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            try:
                fields["compute_sigma"] = float(part)
            except ValueError:
                raise ValueError(
                    f"jitter spec part {part!r} is neither a number nor key=value"
                ) from None
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "compute":
            fields["compute_sigma"] = float(value)
        elif key == "link":
            fields["link_sigma"] = float(value)
        elif key == "swap":
            fields["swap_sigma"] = float(value)
        elif key == "straggler":
            prob, _, alpha = value.partition(":")
            fields["straggler_prob"] = float(prob)
            if alpha:
                fields["straggler_alpha"] = float(alpha)
        else:
            raise ValueError(
                f"unknown jitter spec key {key!r}; expected compute, link, "
                "swap or straggler"
            )
    return JitterSpec(**fields)


def replica_rng(seed: int, replica: int) -> np.random.Generator:
    """The generator of one Monte-Carlo replica.

    Seeded with the ``(seed, replica)`` seed sequence, so replica ``r``'s
    draws are bit-reproducible across processes and independent of the
    replication count or evaluation order.
    """
    return np.random.default_rng([seed, replica])


def _draw_variates(
    rng: np.random.Generator, num_ranks: int, num_stages: int,
) -> Tuple[np.ndarray, ...]:
    """One replica's raw draws, in :func:`perturb_stage_costs`'s fixed order."""
    # Per-rank straggler (uniform, tail uniform), then per-stage
    # forward/backward normals, then per-stage link normals, then per-stage
    # offload/prefetch normals.  The swap draws come *last* so the variates
    # feeding the pre-existing models are bit-identical to what they were
    # before the swap model existed (a spec with ``swap=0`` is a bit-for-bit
    # no-op on the older multipliers, not merely distributionally equivalent).
    return (
        rng.random(num_ranks), rng.random(num_ranks), rng.standard_normal((num_stages, 2)),
        rng.standard_normal(num_stages), rng.standard_normal((num_stages, 2)),
    )


@functools.lru_cache(maxsize=1024)
def _replica_variates(
    seed: int, replica: int, num_ranks: int, num_stages: int,
) -> Tuple[np.ndarray, ...]:
    """The process-wide, read-only raw draws of ``replica_rng(seed, replica)``.

    The draw protocol makes them a pure function of this key, so every
    candidate of a search shares one copy instead of re-seeding a generator
    (``clear_fastpath_caches`` empties the memo).
    """
    variates = _draw_variates(replica_rng(seed, replica), num_ranks, num_stages)
    for array in variates:
        array.flags.writeable = False
    return variates


class JitterRangeError(ValueError):
    """A jitter spec whose draws leave the float range: a multiplier or a
    jittered stage cost overflows.  The message names the spec."""


def perturb_stage_costs(
    costs: Union[StageCosts, Sequence[StageCosts]],
    spec: JitterSpec,
    rng: np.random.Generator,
    vs_rank: Optional[Sequence[int]] = None,
) -> Tuple[StageCosts, ...]:
    """Draw one jittered replica of a per-virtual-stage cost vector.

    A pure ``StageCosts -> StageCosts`` transform: the result is an ordinary
    cost vector the fast evaluator (and the event-engine oracle) scores
    unchanged.  With a null spec the *same* cost objects are returned, so a
    zero-jitter replica is bit-identical to the deterministic evaluation by
    construction, not merely numerically close.

    Args:
        costs: per-virtual-stage costs (a single :class:`StageCosts` is
            treated as one stage; broadcast against a schedule first when
            perturbing a multi-stage vector).
        spec: the perturbation model.
        rng: the replica's generator (:func:`replica_rng`).
        vs_rank: placement map (virtual stage -> rank) used to apply one
            straggler multiplier per *rank*; defaults to the identity
            (stage ``i`` on rank ``i``).

    Draw protocol (load-bearing for the statistical tests): the underlying
    uniform/normal variates are drawn in a fixed order and a fixed count
    that depends only on the stage/rank counts, never on the spec's values;
    the spec's scales are applied to the fixed draws afterwards.  Two specs
    differing only in scale therefore see pointwise-coupled perturbations,
    making each draw's makespan monotone in every jitter scale.

    Raises:
        JitterRangeError: if a multiplier or a jittered cost overflows.
    """
    if isinstance(costs, StageCosts):
        per_stage: Sequence[StageCosts] = [costs]
    else:
        per_stage = list(costs)
    num_stages = len(per_stage)
    if vs_rank is None:
        vs_rank = list(range(num_stages))
    elif len(vs_rank) != num_stages:
        raise ValueError(
            f"placement map covers {len(vs_rank)} virtual stages, costs {num_stages}"
        )
    num_ranks = (max(vs_rank) + 1) if num_stages else 0
    variates = _draw_variates(rng, num_ranks, num_stages)
    return _apply_variates(per_stage, spec, variates, vs_rank)


def _apply_variates(
    per_stage: Sequence[StageCosts], spec: JitterSpec,
    variates: Tuple[np.ndarray, ...], vs_rank: Sequence[int],
) -> Tuple[StageCosts, ...]:
    """Scale one replica's raw draws by ``spec`` and perturb ``per_stage``:
    the cost vector of :func:`_jittered_planes`' only row."""
    if spec.is_null:
        return tuple(per_stage)
    planes = _jittered_planes(per_stage, spec, _multiplier_planes([variates], spec, vs_rank))
    forward, backward, recompute, weight, p2p, offload, prefetch = planes.values[:, :, 0].tolist()
    return tuple(
        StageCosts(
            forward_s=forward[index],
            backward_s=backward[index],
            p2p_bytes=p2p[index],
            offload_bytes=offload[index],
            prefetch_bytes=prefetch[index],
            recompute_s=recompute[index],
            activation_bytes=stage.activation_bytes,
            backward_weight_s=None if stage.backward_weight_s is None else weight[index],
            weight_grad_bytes=stage.weight_grad_bytes,
        )
        for index, stage in enumerate(per_stage)
    )


def _multiplier_planes(
    draws: Sequence[Tuple[np.ndarray, ...]], spec: JitterSpec, vs_rank: Sequence[int],
    identity: bool = False,
) -> np.ndarray:
    """The jitter multipliers of replicas' raw draws, in :class:`CostPlanes` order.

    Shape ``(7, virtual stages, identity + len(draws))``: column ``c`` of
    every plane belongs to ``draws[c - identity]``, and a leading identity
    column (all ``1.0``) stands for the unperturbed run.  The one owner of
    the jitter formula: a straggler rank's Pareto factor times each stage's
    folded-lognormal forward and backward factors, the backward factor also
    scaling recompute and the grad-weight share (which keeps the zero-bubble
    B/W split), and folded-lognormal link and swap factors on the bytes.

    Raises:
        JitterRangeError: if a multiplier overflows.
    """
    exp = np.vectorize(math.exp, otypes=[float])  # math.exp per element
    stage_rank = list(vs_rank)
    columns = [np.ones((7, len(stage_rank)))] if identity else []
    try:
        # An overflowing power or product is caught below as a non-finite
        # multiplier; math.exp raises OverflowError instead.
        with np.errstate(over="ignore", invalid="ignore"):
            for straggler_u, straggler_tail, compute_z, link_z, swap_z in draws:
                rank_mult = np.array([
                    (1.0 - tail) ** (-1.0 / spec.straggler_alpha)
                    if u < spec.straggler_prob else 1.0
                    for u, tail in zip(straggler_u, straggler_tail)
                ])
                compute = exp(spec.compute_sigma * np.abs(compute_z)) * rank_mult[stage_rank, None]
                swap = exp(spec.swap_sigma * np.abs(swap_z))
                link = exp(spec.link_sigma * np.abs(link_z))
                backward = compute[:, 1]
                columns.append(np.stack(
                    [compute[:, 0], backward, backward, backward, link, swap[:, 0], swap[:, 1]]
                ))
    except OverflowError:
        raise _range_error(spec, "a drawn multiplier exceeds the float range") from None
    planes = np.stack(columns, axis=2)
    if not np.isfinite(planes).all():
        raise _range_error(spec, "a drawn multiplier exceeds the float range")
    return planes


@functools.lru_cache(maxsize=256)
def _replica_multipliers(
    seed: int, start: int, stop: int, vs_rank: Tuple[int, ...], spec: JitterSpec,
    identity: bool,
) -> np.ndarray:
    """The process-wide, read-only :func:`_multiplier_planes` of replicas
    ``start .. stop - 1`` of ``seed`` under one placement and spec."""
    num_ranks = max(vs_rank) + 1
    draws = [
        _replica_variates(seed, replica, num_ranks, len(vs_rank))
        for replica in range(start, stop)
    ]
    planes = _multiplier_planes(draws, spec, vs_rank, identity)
    planes.flags.writeable = False
    return planes


def _jittered_planes(
    per_stage: Sequence[StageCosts], spec: JitterSpec, multipliers: np.ndarray,
) -> CostPlanes:
    """``per_stage`` scaled by each column of ``multipliers``.

    Every element is one field times its multiplier (``forward_s *
    multiplier`` and so on, the same IEEE product in numpy as in Python), and
    a stage that leaves its grad-weight share to the default split takes half
    its jittered backward, as :attr:`StageCosts.split_backward_weight_s`
    would.

    Raises:
        JitterRangeError: if a jittered cost overflows.
    """
    base = np.array([
        [stage.forward_s for stage in per_stage],
        [stage.backward_s for stage in per_stage],
        [stage.recompute_s for stage in per_stage],
        [stage.backward_weight_s or 0.0 for stage in per_stage],
        [stage.p2p_bytes for stage in per_stage],
        [stage.offload_bytes for stage in per_stage],
        [stage.prefetch_bytes for stage in per_stage],
    ], dtype=float)
    with np.errstate(over="ignore"):
        values = base[:, :, None] * multipliers
    default_split = [
        index for index, stage in enumerate(per_stage) if stage.backward_weight_s is None
    ]
    if default_split:
        values[3, default_split] = 0.5 * values[1, default_split]
    try:
        return CostPlanes(values)
    except ValueError as error:
        raise _range_error(spec, str(error)) from None


def _range_error(spec: JitterSpec, detail: str) -> JitterRangeError:
    return JitterRangeError(f"jitter spec {spec.describe()!r} overflows: {detail}")


def _risk_base(objective: str) -> str:
    """The :data:`RISK_OBJECTIVES` statistic a risk objective names.

    Accepts the ``ttrain_*`` names of :mod:`repro.sim.failures` too (the
    statistic over time-to-train samples is the same shape).
    """
    base = objective[len("ttrain_"):] if objective.startswith("ttrain_") else objective
    if base not in RISK_OBJECTIVES:
        raise ValueError(
            f"unknown risk objective {objective!r}; expected one of {RISK_OBJECTIVES}"
        )
    return base


class SampleStatistics:
    """Statistics of a Monte-Carlo distribution's ``samples``.

    A field-less mixin of :class:`MakespanDistribution` and
    :class:`repro.sim.failures.TimeToTrainDistribution`; the host dataclass
    provides ``samples`` and the ``to_json_dict``/``from_json_dict`` pair.
    Percentiles use the deterministic nearest-rank definition on the sorted
    samples -- no interpolation, no floating-point scheme differences
    between platforms.
    """

    __slots__ = ()

    @property
    def replicas(self) -> int:
        return len(self.samples)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the samples (0 < q <= 100)."""
        if not 0.0 < q <= 100.0:
            raise ValueError(f"percentile must lie in (0, 100] (got {q})")
        ordered = sorted(self.samples)
        rank = max(int(math.ceil(q / 100.0 * len(ordered))), 1)
        return ordered[rank - 1]

    @property
    def mean_s(self) -> float:
        # fsum: the zero-jitter and null-failure collapses must be exact --
        # the mean of K identical draws is that draw, bit for bit, for
        # power-of-two K.
        return math.fsum(self.samples) / len(self.samples)

    @property
    def p50_s(self) -> float:
        return self.percentile(50.0)

    @property
    def p95_s(self) -> float:
        return self.percentile(95.0)

    @property
    def p99_s(self) -> float:
        return self.percentile(99.0)

    @property
    def cvar95_s(self) -> float:
        """Mean of the worst 5% of samples (tail mean at p95)."""
        ordered = sorted(self.samples)
        cut = max(int(math.ceil(0.95 * len(ordered))), 1) - 1
        tail = ordered[cut:]
        return math.fsum(tail) / len(tail)

    def statistic(self, base: str) -> float:
        """The samples' statistic named by one of :data:`RISK_OBJECTIVES`."""
        if base == "mean":
            return self.mean_s
        if base == "p50":
            return self.p50_s
        if base == "p95":
            return self.p95_s
        if base == "p99":
            return self.p99_s
        if base == "cvar":
            return self.cvar95_s
        raise ValueError(
            f"unknown risk objective {base!r}; expected one of {RISK_OBJECTIVES}"
        )

    def to_json(self) -> str:
        """Stable (sorted-keys) JSON string of ``to_json_dict()``."""
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        """Inverse of :meth:`to_json`."""
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class MakespanDistribution(SampleStatistics):
    """Monte-Carlo makespan distribution of one schedule under jitter.

    Samples are stored in draw order (replica ``r`` at index ``r``), so two
    distributions from the same seed compare bit-identically with ``==``.
    """

    samples: Tuple[float, ...]
    bubble_samples: Tuple[float, ...]
    deterministic_total_s: float
    lower_bound_s: float
    seed: int
    spec: JitterSpec
    #: The CI half-width bound a sequential-stopping run targeted, ``None``
    #: for a fixed-replica run (the default path).
    target_ci_halfwidth: Optional[float] = None
    #: The fast path's timeline of the unperturbed costs (row 0 of a batched
    #: sweep); neither compared nor serialized, ``None`` after a JSON round trip.
    deterministic_timeline: Optional[PipelineTimeline] = field(
        default=None, compare=False, repr=False,
    )

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("a MakespanDistribution needs at least one sample")
        if len(self.samples) != len(self.bubble_samples):
            raise ValueError("samples and bubble_samples must align")

    @property
    def min_s(self) -> float:
        return min(self.samples)

    @property
    def max_s(self) -> float:
        return max(self.samples)

    @property
    def bubble_mean(self) -> float:
        return math.fsum(self.bubble_samples) / len(self.bubble_samples)

    @property
    def bubble_variance(self) -> float:
        """Population variance of the per-draw bubble fraction."""
        mean = self.bubble_mean
        return math.fsum((b - mean) ** 2 for b in self.bubble_samples) / len(self.bubble_samples)

    def score(self, objective: str) -> float:
        """The scalar a risk-adjusted search minimises: the statistic named
        by one of :data:`RISK_OBJECTIVES`."""
        return self.statistic(objective)

    def ci_halfwidth_s(self, objective: str = "mean") -> float:
        """Achieved 95% CI half-width of one objective's estimator."""
        return distribution_ci_halfwidth(self.samples, objective)

    def to_json_dict(self) -> dict:
        """Plain-JSON mapping; samples in draw order as exact hex floats."""
        return {
            "samples": hex_floats(self.samples),
            "bubble_samples": hex_floats(self.bubble_samples),
            "deterministic_total_s": hex_float(self.deterministic_total_s),
            "lower_bound_s": hex_float(self.lower_bound_s),
            "seed": self.seed,
            "spec": self.spec.to_json_dict(),
            "target_ci_halfwidth": opt_hex_float(self.target_ci_halfwidth),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MakespanDistribution":
        """Inverse of :meth:`to_json_dict` -- compares ``==`` to the original
        (sample equality is bit-identity, so every percentile and score
        reproduces exactly)."""
        return cls(
            samples=from_hex_floats(data["samples"]),
            bubble_samples=from_hex_floats(data["bubble_samples"]),
            deterministic_total_s=from_hex_float(data["deterministic_total_s"]),
            lower_bound_s=from_hex_float(data["lower_bound_s"]),
            seed=data["seed"],
            spec=JitterSpec.from_json_dict(data["spec"]),
            target_ci_halfwidth=opt_from_hex_float(data["target_ci_halfwidth"]),
        )


def distribution_ci_halfwidth(samples: Sequence[float], objective: str = "mean") -> float:
    """Deterministic 95% CI half-width estimate of one risk objective.

    The sequential-stopping criterion of :class:`ReplicaBudget`: replication
    stops once this drops under the requested bound.  Estimators, all
    closed-form and platform-deterministic (no SciPy):

    * ``mean`` -- the CLT interval ``z * s / sqrt(n)`` with the unbiased
      sample standard deviation;
    * ``p50 | p95 | p99`` -- the distribution-free order-statistic interval:
      the rank of the ``q``-quantile is binomial with standard deviation
      ``sqrt(n q (1 - q))``, so half the spread between the order statistics
      ``z`` rank-standard-deviations either side of the nearest-rank index
      bounds the quantile estimate's uncertainty;
    * ``cvar`` -- the CLT interval of the tail mean over the worst-5% draws.

    Accepts the ``ttrain_*`` objective names too.  Returns ``inf`` when the
    sample count cannot support the estimate (fewer than two samples, or an
    empty variance tail), so a sequential run keeps drawing.
    """
    objective = _risk_base(objective)
    n = len(samples)
    if n < 2:
        return math.inf
    ordered = sorted(samples)
    if objective == "mean":
        mean = math.fsum(ordered) / n
        var = math.fsum((x - mean) ** 2 for x in ordered) / (n - 1)
        return _Z_95 * math.sqrt(var / n)
    if objective == "cvar":
        cut = max(int(math.ceil(0.95 * n)), 1) - 1
        tail = ordered[cut:]
        if len(tail) < 2:
            return math.inf
        mean = math.fsum(tail) / len(tail)
        var = math.fsum((x - mean) ** 2 for x in tail) / (len(tail) - 1)
        return _Z_95 * math.sqrt(var / len(tail))
    q = {"p50": 0.5, "p95": 0.95, "p99": 0.99}[objective]
    rank = max(int(math.ceil(q * n)), 1) - 1
    spread = _Z_95 * math.sqrt(n * q * (1.0 - q))
    lo = max(int(math.floor(rank - spread)), 0)
    hi = min(int(math.ceil(rank + spread)), n - 1)
    return (ordered[hi] - ordered[lo]) / 2.0


@dataclass(frozen=True)
class ReplicaBudget:
    """A validated Monte-Carlo replica budget and its sequential-stopping rule.

    The budget of :func:`monte_carlo_timeline` and of
    :func:`repro.sim.failures.simulate_time_to_train`.  Construction raises
    ``ValueError`` unless both counts are ints in range, ``ci_halfwidth`` is
    ``None`` or non-negative, and ``objective`` is a risk objective (a
    ``ttrain_*`` name included) -- whether or not a bound is set.
    """

    replicas: int
    ci_halfwidth: Optional[float]
    objective: str
    min_replicas: int

    def __post_init__(self) -> None:
        require_count("replicas", self.replicas, 1)
        require_count("min_replicas", self.min_replicas, 2)
        if self.ci_halfwidth is not None and (
            math.isnan(self.ci_halfwidth) or self.ci_halfwidth < 0
        ):
            raise ValueError(f"ci_halfwidth must be non-negative (got {self.ci_halfwidth})")
        _risk_base(self.objective)

    def stops(self, samples: Sequence[float], divisor: float) -> bool:
        """Whether replication stops after ``samples``, short of the cap.

        True once at least ``min_replicas`` samples are in and the
        objective estimator's CI half-width, divided by ``divisor`` into
        the bound's units, is under ``ci_halfwidth``.  A makespan run
        passes ``1`` (``x / 1`` is exact), the time-to-train walk its target
        iteration count.
        """
        return (
            self.ci_halfwidth is not None
            and len(samples) >= self.min_replicas
            and len(samples) < self.replicas
            and distribution_ci_halfwidth(samples, self.objective) / divisor
            <= self.ci_halfwidth
        )


def monte_carlo_timeline(
    schedule: PipelineSchedule,
    costs: Union[StageCosts, Sequence[StageCosts]],
    spec: JitterSpec,
    replicas: int = DEFAULT_REPLICAS,
    seed: int = 0,
    p2p_bandwidth_bytes_per_s: float = float("inf"),
    p2p_latency_s: float = 0.0,
    pcie_bandwidth_bytes_per_s: float = 16e9,
    validate: bool = False,
    ci_halfwidth: Optional[float] = None,
    objective: str = "mean",
    min_replicas: int = MIN_SEQUENTIAL_REPLICAS,
    batch: Optional[bool] = None,
) -> MakespanDistribution:
    """Evaluate a schedule under ``replicas`` seeded jitter draws.

    Each replica perturbs the per-stage costs (:func:`perturb_stage_costs`,
    straggler multipliers routed through the schedule's placement map) and
    scores the *same* schedule with the critical-path fast evaluator -- the
    op order is fixed by the deterministic costs, only the durations move,
    mirroring how a real cluster executes the planned schedule under noise.
    The unperturbed costs are scored too: their fast-path timeline is the
    result's ``deterministic_timeline`` and its makespan
    ``deterministic_total_s``.

    Determinism contract: the returned distribution is a pure function of
    ``(schedule structure, costs, spec, replicas, seed, transfer params,
    ci_halfwidth, objective, min_replicas)``.  Replicas evaluate through the
    uncached executors, so Monte-Carlo never pollutes the deterministic
    search's memo caches.

    Variance-aware budgeting: with ``ci_halfwidth`` set, replication stops
    as soon as at least ``min_replicas`` draws are in *and* the objective
    estimator's 95% CI half-width (:func:`distribution_ci_halfwidth`) is
    under the bound (:meth:`ReplicaBudget.stops`); ``replicas`` remains the
    hard cap.  Every budget argument is checked up front, even with
    ``ci_halfwidth=None``.  Because replica
    ``r``'s draws never depend on the replication count, an adaptive run's
    samples are exactly a prefix of the fixed-cap run's -- stopping early
    changes how many draws are averaged, never which draws.  With
    ``ci_halfwidth=None`` (the default) the fixed-replica behaviour is
    bit-identical to before the knob existed.

    ``validate=True`` additionally runs every draw through the discrete-event
    oracle and raises :class:`~repro.sim.fastpath.FastPathMismatchError` on
    any divergence -- the ``fast == event`` invariant, enforced per draw.

    Batching: with ``batch=None`` (the default) all replicas of a candidate
    are stacked into :func:`~repro.sim.fastpath.critical_path_timeline_batch`
    calls over the schedule's compiled :class:`ScheduleProgram` whenever more
    than one replica is requested and ``validate`` is off; ``batch=False``
    forces the scalar per-replica loop and ``batch=True`` forces batching.
    A batch is the candidate's cost columns times memoized multiplier planes
    (:func:`_replica_multipliers`, no per-replica ``StageCosts``), and the
    first batch leads with the unperturbed row, so one sweep also yields the
    deterministic timeline; the scalar loop sweeps the unperturbed costs on
    their own.  The two paths are bit-identical -- every batch row reproduces
    the scalar executor's float operations exactly, and under ``ci_halfwidth``
    the batched path evaluates chunks (``min_replicas`` first, then doubling)
    but applies the stop test sample by sample in replica order, so it stops
    at exactly the scalar loop's replica and discards any surplus draws of
    the final chunk.  ``validate=True`` always takes the scalar loop: the
    oracle cross-check is inherently per draw.

    Raises:
        JitterRangeError: if ``spec`` overflows a multiplier or a cost.
    """
    budget = ReplicaBudget(replicas, ci_halfwidth, objective, min_replicas)
    per_stage = _normalise_costs(schedule, costs)
    vs_rank = schedule.virtual_stage_ranks
    num_ranks = max(vs_rank) + 1
    transfer = dict(
        p2p_bandwidth_bytes_per_s=p2p_bandwidth_bytes_per_s,
        p2p_latency_s=p2p_latency_s,
        pcie_bandwidth_bytes_per_s=pcie_bandwidth_bytes_per_s,
    )
    bound = pipeline_lower_bound(
        schedule, per_stage,
        p2p_bandwidth_bytes_per_s=p2p_bandwidth_bytes_per_s,
        p2p_latency_s=p2p_latency_s,
    )
    use_batch = batch if batch is not None else (replicas > 1 and not validate)
    if validate:
        use_batch = False  # the oracle cross-check is per draw by nature
    samples: List[float] = []
    bubbles: List[float] = []

    if use_batch:
        program = compile_schedule_program(schedule)
        next_replica = 0
        stopped = False
        while next_replica < replicas and not stopped:
            if ci_halfwidth is None:
                chunk = replicas - next_replica
            elif next_replica == 0:
                chunk = min(min_replicas, replicas)
            else:
                chunk = min(next_replica, replicas - next_replica)
            # The first chunk leads with the unperturbed row: the
            # deterministic run shares the sweep.
            first = next_replica == 0
            multipliers = _replica_multipliers(
                seed, next_replica, next_replica + chunk, vs_rank, spec, first,
            )
            result = critical_path_timeline_batch(
                program, _jittered_planes(per_stage, spec, multipliers), **transfer,
            )
            if first:
                deterministic = result.timeline(0, per_stage)
            for row in range(first, first + chunk):
                samples.append(float(result.total_s[row]))
                bubbles.append(float(result.bubble_fraction[row]))
                if budget.stops(samples, 1):
                    stopped = True
                    break
            next_replica += chunk
    else:
        deterministic = critical_path_timeline(schedule, per_stage, **transfer)
        for replica in range(replicas):
            # Bit-identical to perturb_stage_costs(..., replica_rng(seed, replica)).
            variates = _replica_variates(seed, replica, num_ranks, len(per_stage))
            drawn = _apply_variates(per_stage, spec, variates, vs_rank)
            timeline = critical_path_timeline(schedule, drawn, **transfer)
            if validate:
                oracle = simulate_pipeline(schedule, list(drawn), **transfer)
                _check_against_oracle(timeline, oracle)
            samples.append(timeline.total_s)
            bubbles.append(timeline.bubble_fraction)
            if budget.stops(samples, 1):
                break
    return MakespanDistribution(
        samples=tuple(samples),
        bubble_samples=tuple(bubbles),
        deterministic_total_s=deterministic.total_s,
        lower_bound_s=bound,
        seed=seed,
        spec=spec,
        target_ci_halfwidth=ci_halfwidth,
        deterministic_timeline=deterministic,
    )
