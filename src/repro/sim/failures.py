"""Failure-process simulation: correlated failure/preemption schedules,
checkpoint-restart recovery costing, and time-to-train distributions.

The stochastic layer (``sim/stochastic.py``) models *smooth* noise --
jitter, stragglers, link wobble.  Real fleets fail as a *process*:
per-rank MTBF draws, whole nodes dying together (a PSU, a NIC, a top-of-rack
switch), spot instances preempted on a notice window.  A planner that ranks
strategies for fleet-scale jobs must score *time-to-train under failures and
recovery*, not just a jittered single-iteration makespan.  This module layers
that on top of the deterministic evaluators the same way ``sim/stochastic.py``
layers jitter -- as a pure, seeded post-processing of iteration times:

* **arrival processes** (:func:`draw_failure_trace`): per-rank Poisson
  (exponential inter-arrival) or Weibull MTBF draws, *correlated* group
  failures (a draw escalates to the whole node of ``gpus_per_node`` ranks),
  and spot-style *preemption schedules* (fixed preemption instants with a
  notice window).  All randomness flows through per-``(seed, replica, rank)``
  ``numpy.random.Generator`` seed sequences, so a trace is bit-reproducible
  across processes and rank ``r``'s arrivals are independent of how many
  other ranks exist or how far the walk reads any other rank's stream;
* **checkpoint-restart recovery costing** (:class:`RecoveryModel`,
  :func:`simulate_time_to_train`): periodic checkpoint writes (cost derived
  from model bytes over a checkpoint bandwidth, or given directly), lost-work
  replay from the last durable checkpoint, restart overhead, elastic
  continuation on the surviving ranks at degraded throughput (rolling
  failures keep shrinking the job), and proactive checkpoints
  inside a preemption's notice window.  The optimal checkpoint interval has
  the Young/Daly closed form (:func:`optimal_checkpoint_interval`), checked
  against simulation in ``tests/test_failures.py``;
* **failure-adjusted objectives** (:data:`TTRAIN_OBJECTIVES`): the
  :class:`TimeToTrainDistribution` scores ``ttrain_mean | ttrain_p50 |
  ttrain_p95 | ttrain_p99 | ttrain_cvar`` as *effective per-iteration time*
  (time-to-train divided by the target iteration count), so the number the
  search minimises keeps iteration-seconds units and every analytic pruning
  floor stays a valid lower bound: a job can never finish faster than
  ``target_iterations`` failure-free iterations, hence the effective
  iteration time is >= the deterministic iteration time >= the floor.

Invariants (property-tested like the stochastic layer's):

* a **null failure spec is free**: :data:`NULL_FAILURES` never draws a
  variate, :func:`simulate_time_to_train` returns the ideal time bit for bit,
  and a training system constructed with ``failures="0"`` produces a report
  field-for-field identical to the deterministic one (the bench guard in
  ``scripts/bench_search.py`` checks strategy, time and cache counters);
* every time-to-train sample is **>= the ideal time** (failures and
  checkpoints only add), which keeps bound-based pruning conservative and
  argmax-invariant under every ``ttrain_*`` objective;
* the walk consumes arrival streams lazily but deterministically: the same
  ``(spec, recovery, iteration times, target, seed)`` tuple reproduces the
  same distribution in a fresh interpreter.
"""

from __future__ import annotations

import bisect
import copy
import functools
import heapq
import math
import threading
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

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

from repro.sim.stochastic import (
    DEFAULT_REPLICAS,
    MIN_SEQUENTIAL_REPLICAS,
    ReplicaBudget,
    SampleStatistics,
)

#: Failure-adjusted risk objectives: the same five statistics as
#: :data:`repro.sim.stochastic.RISK_OBJECTIVES`, taken over the
#: *effective per-iteration time* (time-to-train / target iterations) of the
#: failure-process Monte-Carlo instead of the single-iteration makespan.
TTRAIN_OBJECTIVES: Tuple[str, ...] = (
    "ttrain_mean", "ttrain_p50", "ttrain_p95", "ttrain_p99", "ttrain_cvar",
)

#: Reference job length of the failure-adjusted objectives: long enough for
#: the failure process to matter (hundreds of system-level failures at fleet
#: MTBFs), short enough that the per-candidate walk stays cheap.
DEFAULT_TARGET_ITERATIONS = 100

#: Wall-clock cap of one time-to-train walk, as a multiple of the ideal
#: (failure-free) time.  A pathological configuration -- MTBF shorter than
#: the replay-plus-restart cycle -- would otherwise never finish; the walk
#: stops there and reports the capped sample, which any sane candidate beats.
MAX_SLOWDOWN = 1e4

#: Seed-sequence domain separating failure-trace streams from the jitter
#: streams of :func:`repro.sim.stochastic.replica_rng` (which seed with the
#: plain ``[seed, replica]`` prefix).
_FAILURE_STREAM = 0x46414C


def ttrain_objective_base(objective: str) -> str:
    """Map a ``ttrain_*`` objective to its underlying statistic name."""
    if objective not in TTRAIN_OBJECTIVES:
        raise ValueError(
            f"unknown time-to-train objective {objective!r}; "
            f"expected one of {TTRAIN_OBJECTIVES}"
        )
    return objective[len("ttrain_"):]


@dataclass(frozen=True)
class FailureSpec:
    """Parameters of the seeded failure/preemption arrival process.

    Attributes:
        mtbf_s: per-rank mean time between failures in (simulated) seconds;
            ``inf`` disables random failures.
        process: inter-arrival law -- ``"poisson"`` (exponential, the
            memoryless classic) or ``"weibull"`` (shape < 1 models the
            infant-mortality / burst-prone behaviour real GPU fleets show).
        weibull_shape: Weibull shape ``k``; the scale is chosen so the mean
            inter-arrival stays ``mtbf_s`` for every shape.
        correlated_prob: probability that a failure escalates to the whole
            node (all ``gpus_per_node`` ranks sharing the failing rank's
            node fail together).
        gpus_per_node: node size used to group ranks for correlated
            failures; ``None`` defers to the caller (the training systems
            pass their cluster's node size).
        preempt_every_s: spot-style preemption schedule -- the job is
            preempted at the fixed instants ``k * preempt_every_s``
            (``k >= 1``); ``inf`` disables preemption.
        preempt_notice_s: notice window before each preemption instant.  A
            window long enough to write a checkpoint
            (:attr:`RecoveryModel.checkpoint_write_s`) turns the preemption
            into a clean restart with no lost work.
    """

    mtbf_s: float = math.inf
    process: str = "poisson"
    weibull_shape: float = 0.7
    correlated_prob: float = 0.0
    gpus_per_node: Optional[int] = None
    preempt_every_s: float = math.inf
    preempt_notice_s: float = 0.0

    def __post_init__(self) -> None:
        if self.process not in ("poisson", "weibull"):
            raise ValueError(
                f"unknown failure process {self.process!r}; expected 'poisson' or 'weibull'"
            )
        if math.isnan(self.mtbf_s) or self.mtbf_s <= 0:
            raise ValueError(f"mtbf_s must be positive (got {self.mtbf_s})")
        if not math.isfinite(self.weibull_shape) or self.weibull_shape <= 0:
            raise ValueError(
                f"weibull_shape must be positive (got {self.weibull_shape})"
            )
        if not 0.0 <= self.correlated_prob <= 1.0 or math.isnan(self.correlated_prob):
            raise ValueError(
                f"correlated_prob must lie in [0, 1] (got {self.correlated_prob})"
            )
        if self.gpus_per_node is not None and self.gpus_per_node < 1:
            raise ValueError(f"gpus_per_node must be >= 1 (got {self.gpus_per_node})")
        if math.isnan(self.preempt_every_s) or self.preempt_every_s <= 0:
            raise ValueError(
                f"preempt_every_s must be positive (got {self.preempt_every_s})"
            )
        if not math.isfinite(self.preempt_notice_s) or self.preempt_notice_s < 0:
            raise ValueError(
                f"preempt_notice_s must be finite and non-negative "
                f"(got {self.preempt_notice_s})"
            )

    @property
    def is_null(self) -> bool:
        """True when the process never produces an event."""
        return math.isinf(self.mtbf_s) and math.isinf(self.preempt_every_s)

    def system_mtbf_s(self, num_ranks: int) -> float:
        """Mean time between *job-level* interruptions for ``num_ranks`` ranks.

        Random failures of any rank interrupt the whole job, so ``num_ranks``
        independent per-rank processes superpose to rate ``num_ranks / mtbf``;
        the fixed preemption schedule contributes rate ``1 / preempt_every``.
        Used to pick the Young/Daly checkpoint interval.
        """
        if num_ranks < 1:
            raise ValueError(f"num_ranks must be >= 1 (got {num_ranks})")
        rate = 0.0
        if math.isfinite(self.mtbf_s):
            rate += num_ranks / self.mtbf_s
        if math.isfinite(self.preempt_every_s):
            rate += 1.0 / self.preempt_every_s
        return math.inf if rate == 0.0 else 1.0 / rate

    def describe(self) -> str:
        """The spec back in :func:`parse_failure_spec`'s grammar (``"0"`` if null)."""
        if self.is_null:
            return "0"
        parts = []
        if math.isfinite(self.mtbf_s):
            parts.append(f"mtbf={self.mtbf_s:g}")
            if self.process != "poisson":
                parts.append(f"process={self.process}:{self.weibull_shape:g}")
        if self.correlated_prob:
            if self.gpus_per_node is not None:
                parts.append(f"correlated={self.correlated_prob:g}:{self.gpus_per_node}")
            else:
                parts.append(f"correlated={self.correlated_prob:g}")
        if math.isfinite(self.preempt_every_s):
            if self.preempt_notice_s:
                parts.append(f"preempt={self.preempt_every_s:g}:{self.preempt_notice_s:g}")
            else:
                parts.append(f"preempt={self.preempt_every_s:g}")
        return ",".join(parts)

    def to_json_dict(self) -> dict:
        """Plain-JSON mapping (hex floats spell the ``inf`` sentinels exactly)."""
        return {
            "mtbf_s": hex_float(self.mtbf_s),
            "process": self.process,
            "weibull_shape": hex_float(self.weibull_shape),
            "correlated_prob": hex_float(self.correlated_prob),
            "gpus_per_node": self.gpus_per_node,
            "preempt_every_s": hex_float(self.preempt_every_s),
            "preempt_notice_s": hex_float(self.preempt_notice_s),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FailureSpec":
        """Inverse of :meth:`to_json_dict`."""
        return cls(
            mtbf_s=from_hex_float(data["mtbf_s"]),
            process=data["process"],
            weibull_shape=from_hex_float(data["weibull_shape"]),
            correlated_prob=from_hex_float(data["correlated_prob"]),
            gpus_per_node=data["gpus_per_node"],
            preempt_every_s=from_hex_float(data["preempt_every_s"]),
            preempt_notice_s=from_hex_float(data["preempt_notice_s"]),
        )


#: The null failure process: no random failures, no preemptions.  Everything
#: downstream treats it as "the layer is off" and stays bit-identical to the
#: deterministic path.
NULL_FAILURES = FailureSpec()


def parse_failure_spec(text: str) -> FailureSpec:
    """Parse the CLI / config failure grammar into a :class:`FailureSpec`.

    Grammar (comma-separated, all parts optional)::

        0                            -- the null process (layer off)
        mtbf=<seconds>               -- per-rank MTBF (Poisson by default)
        process=weibull[:<shape>]    -- Weibull inter-arrival (burst-prone)
        correlated=<prob>[:<node>]   -- whole-node failures w.p. <prob>
        preempt=<every>[:<notice>]   -- fixed preemption instants + notice

    Examples: ``mtbf=43200``, ``mtbf=43200,correlated=0.3:8``,
    ``mtbf=86400,process=weibull:0.7,preempt=21600:120``.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty failure spec")
    if text == "0":
        return NULL_FAILURES
    fields: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"failure spec part {part!r} is not key=value; expected "
                "mtbf, process, correlated or preempt"
            )
        key, _, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if key == "mtbf":
            fields["mtbf_s"] = float(value)
        elif key == "process":
            name, _, shape = value.partition(":")
            fields["process"] = name
            if shape:
                fields["weibull_shape"] = float(shape)
        elif key == "correlated":
            prob, _, node = value.partition(":")
            fields["correlated_prob"] = float(prob)
            if node:
                fields["gpus_per_node"] = int(node)
        elif key == "preempt":
            every, _, notice = value.partition(":")
            fields["preempt_every_s"] = float(every)
            if notice:
                fields["preempt_notice_s"] = float(notice)
        else:
            raise ValueError(
                f"unknown failure spec key {key!r}; expected mtbf, process, "
                "correlated or preempt"
            )
    return FailureSpec(**fields)


class FailureEvent(NamedTuple):
    """One interruption of the job."""

    time_s: float
    ranks: Tuple[int, ...]
    kind: str  # "failure" | "preemption"
    notice_s: float


def failure_rank_rng(seed: int, replica: int, rank: int) -> np.random.Generator:
    """The arrival-stream generator of one rank in one Monte-Carlo replica.

    Seeded with ``(_FAILURE_STREAM, seed, replica, rank)``, so traces are
    bit-reproducible across processes, disjoint from the jitter streams of
    :func:`repro.sim.stochastic.replica_rng`, and rank ``r``'s arrivals do
    not depend on how far any other rank's stream is read.
    """
    return np.random.default_rng([_FAILURE_STREAM, seed, replica, rank])


class _RankArrivals:
    """Lazy per-rank failure arrivals: inter-arrival draws made on demand.

    The only place failure arrivals are drawn.  A rank's stream is a pure
    function of ``(spec, seed, replica, rank)`` -- never of an iteration time
    or of how far anything reads it.
    """

    def __init__(self, spec: FailureSpec, rank: int, seed: int, replica: int) -> None:
        self._spec = spec
        self._rng = failure_rank_rng(seed, replica, rank)
        self._time = 0.0
        if spec.process == "weibull":
            # Scale so the mean inter-arrival is mtbf for every shape.
            self._scale = spec.mtbf_s / math.gamma(1.0 + 1.0 / spec.weibull_shape)
        else:
            self._scale = spec.mtbf_s

    def next_event(self) -> Tuple[float, bool]:
        """Advance to the next arrival: ``(time, correlated?)``.

        The correlation coin is flipped on the rank's own stream right after
        the inter-arrival draw, so the variate order per rank is fixed.
        """
        if self._spec.process == "weibull":
            interval = self._scale * float(self._rng.weibull(self._spec.weibull_shape))
        else:
            interval = float(self._rng.exponential(self._scale))
        self._time += interval
        correlated = bool(self._rng.random() < self._spec.correlated_prob)
        return self._time, correlated


def _node_ranks(rank: int, num_ranks: int, gpus_per_node: int) -> Tuple[int, ...]:
    node = rank // gpus_per_node
    first = node * gpus_per_node
    return tuple(range(first, min(first + gpus_per_node, num_ranks)))


def draw_failure_trace(
    spec: FailureSpec,
    num_ranks: int,
    horizon_s: float,
    seed: int = 0,
    replica: int = 0,
    gpus_per_node: Optional[int] = None,
) -> Tuple[FailureEvent, ...]:
    """Draw one replica's failure/preemption trace up to ``horizon_s``.

    Pure function of ``(spec, num_ranks, horizon, seed, replica,
    gpus_per_node)`` -- the same inputs reproduce the same trace bit for bit
    in a fresh process.  Events are returned in time order; simultaneous
    events come failures first, by rank.  The trace is a prefix of the event
    stream :func:`simulate_time_to_train` walks (and shares its memoized
    draws): the failures up to ``horizon_s`` and the first
    ``int(horizon_s / preempt_every_s)`` preemptions.

    Args:
        gpus_per_node: node size for correlated failures; overrides the
            spec's own value (the training systems pass their cluster's).
    """
    if num_ranks < 1:
        raise ValueError(f"num_ranks must be >= 1 (got {num_ranks})")
    if math.isnan(horizon_s) or horizon_s < 0:
        raise ValueError(f"horizon_s must be non-negative (got {horizon_s})")
    if spec.is_null:
        return ()
    node_size = gpus_per_node if gpus_per_node is not None else (spec.gpus_per_node or 8)
    preemptions = 0
    last_s = horizon_s
    if math.isfinite(spec.preempt_every_s):
        preemptions = int(horizon_s / spec.preempt_every_s)
        last_s = max(horizon_s, preemptions * spec.preempt_every_s)
    trace = _LazyTrace(spec, num_ranks, seed, replica, node_size)
    events: List[FailureEvent] = []
    taken = 0
    event = trace.next_event()
    while event.time_s <= last_s:
        if event.kind == "preemption":
            taken += 1
            if taken <= preemptions:
                events.append(event)
        elif event.time_s <= horizon_s:
            events.append(event)
        event = trace.next_event()
    return tuple(events)


# ----------------------------------------------------------------- recovery
def optimal_checkpoint_interval(checkpoint_write_s: float, system_mtbf_s: float) -> float:
    """Young/Daly first-order optimal checkpoint interval.

    ``tau* = sqrt(2 * delta * M)`` for a write cost ``delta`` and a job-level
    MTBF ``M`` -- the interval minimising expected (checkpoint + lost work)
    overhead when ``delta << M``.  Verified against
    :func:`simulate_time_to_train` on an interval grid in
    ``tests/test_failures.py``.  Returns ``inf`` (never checkpoint) when the
    MTBF is infinite, the write cost itself as a floor (checkpointing more
    often than the write cost can never help), and ``0`` when the write is
    free -- the continuous-checkpointing limit, which
    :func:`simulate_time_to_train` models analytically (progress is durable
    up to each interruption instant, so a failure never loses work and only
    the recovery itself is paid).
    """
    if math.isnan(checkpoint_write_s) or checkpoint_write_s < 0:
        raise ValueError(
            f"checkpoint_write_s must be non-negative (got {checkpoint_write_s})"
        )
    if math.isnan(system_mtbf_s) or system_mtbf_s <= 0:
        raise ValueError(f"system_mtbf_s must be positive (got {system_mtbf_s})")
    if math.isinf(system_mtbf_s):
        return math.inf
    if checkpoint_write_s == 0.0:
        return 0.0
    return max(math.sqrt(2.0 * checkpoint_write_s * system_mtbf_s), checkpoint_write_s)


@dataclass(frozen=True)
class RecoveryModel:
    """Checkpoint-restart recovery costing.

    Attributes:
        checkpoint_write_s: wall-clock cost of writing one checkpoint
            (training pauses for the write; use :meth:`from_model_bytes` to
            derive it from optimizer-state bytes over a storage bandwidth).
        restart_overhead_s: fixed gap between an interruption and training
            resuming (re-scheduling, NCCL re-init, checkpoint restore).
        checkpoint_interval_s: useful-work seconds between checkpoints;
            ``None`` picks the Young/Daly optimum for the failure process at
            hand (:func:`optimal_checkpoint_interval`).
        elastic: when True a rank failure does not wait for a replacement --
            the job continues on the surviving ranks, its work slowed by
            ``num_ranks / surviving``, without paying
            ``restart_overhead_s``, recovering to full strength only
            at the next inelastic restart (a preemption, or attrition
            through ``min_rank_fraction``); when False every failure
            restarts on the full cluster after ``restart_overhead_s``.
        min_rank_fraction: elastic continuation floor -- when attrition
            drops the surviving fraction below this, the job stops shrinking
            and takes a full restart instead.
    """

    checkpoint_write_s: float = 30.0
    restart_overhead_s: float = 300.0
    checkpoint_interval_s: Optional[float] = None
    elastic: bool = False
    min_rank_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not math.isfinite(self.checkpoint_write_s) or self.checkpoint_write_s < 0:
            raise ValueError(
                f"checkpoint_write_s must be finite and non-negative "
                f"(got {self.checkpoint_write_s})"
            )
        if not math.isfinite(self.restart_overhead_s) or self.restart_overhead_s < 0:
            raise ValueError(
                f"restart_overhead_s must be finite and non-negative "
                f"(got {self.restart_overhead_s})"
            )
        if self.checkpoint_interval_s is not None and (
            math.isnan(self.checkpoint_interval_s) or self.checkpoint_interval_s <= 0
        ):
            raise ValueError(
                f"checkpoint_interval_s must be positive (got {self.checkpoint_interval_s})"
            )
        if not 0.0 < self.min_rank_fraction <= 1.0:
            raise ValueError(
                f"min_rank_fraction must lie in (0, 1] (got {self.min_rank_fraction})"
            )

    @classmethod
    def from_model_bytes(
        cls,
        checkpoint_bytes: float,
        write_bandwidth_bytes_per_s: float = 10e9,
        **kwargs,
    ) -> "RecoveryModel":
        """Derive the write cost from checkpoint bytes over a storage bandwidth."""
        if checkpoint_bytes < 0 or not math.isfinite(checkpoint_bytes):
            raise ValueError(f"checkpoint_bytes must be non-negative (got {checkpoint_bytes})")
        if write_bandwidth_bytes_per_s <= 0:
            raise ValueError("write_bandwidth_bytes_per_s must be positive")
        return cls(
            checkpoint_write_s=checkpoint_bytes / write_bandwidth_bytes_per_s,
            **kwargs,
        )

    def interval_for(self, spec: FailureSpec, num_ranks: int) -> float:
        """The checkpoint interval the walk uses for one failure process."""
        if self.checkpoint_interval_s is not None:
            return self.checkpoint_interval_s
        return optimal_checkpoint_interval(
            self.checkpoint_write_s, spec.system_mtbf_s(num_ranks),
        )

    def describe(self) -> str:
        """The model back in :func:`parse_recovery_spec`'s grammar."""
        parts = [f"write={self.checkpoint_write_s:g}",
                 f"restart={self.restart_overhead_s:g}"]
        if self.checkpoint_interval_s is not None:
            parts.append(f"interval={self.checkpoint_interval_s:g}")
        if self.elastic:
            parts.append("elastic")
        return ",".join(parts)

    def to_json_dict(self) -> dict:
        """Plain-JSON mapping; exact inverse of :meth:`from_json_dict`."""
        return {
            "checkpoint_write_s": hex_float(self.checkpoint_write_s),
            "restart_overhead_s": hex_float(self.restart_overhead_s),
            "checkpoint_interval_s": opt_hex_float(self.checkpoint_interval_s),
            "elastic": self.elastic,
            "min_rank_fraction": hex_float(self.min_rank_fraction),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RecoveryModel":
        """Inverse of :meth:`to_json_dict`."""
        return cls(
            checkpoint_write_s=from_hex_float(data["checkpoint_write_s"]),
            restart_overhead_s=from_hex_float(data["restart_overhead_s"]),
            checkpoint_interval_s=opt_from_hex_float(data["checkpoint_interval_s"]),
            elastic=data["elastic"],
            min_rank_fraction=from_hex_float(data["min_rank_fraction"]),
        )


#: Default recovery model of the failure-adjusted search paths: a 30 s
#: checkpoint write, a 5-minute restart, Young/Daly interval.
DEFAULT_RECOVERY = RecoveryModel()


def parse_recovery_spec(text: str) -> RecoveryModel:
    """Parse the CLI / config recovery grammar into a :class:`RecoveryModel`.

    Grammar (comma-separated, all parts optional)::

        write=<seconds>       -- checkpoint write cost
        restart=<seconds>     -- restart overhead per interruption
        interval=<seconds>    -- fixed checkpoint interval (default: Young/Daly)
        elastic               -- continue on surviving ranks instead of waiting

    Example: ``write=40,restart=300,interval=1800,elastic``.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty recovery spec")
    fields: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part == "elastic":
            fields["elastic"] = True
            continue
        if "=" not in part:
            raise ValueError(
                f"recovery spec part {part!r} is not key=value; expected "
                "write, restart, interval or elastic"
            )
        key, _, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if key == "write":
            fields["checkpoint_write_s"] = float(value)
        elif key == "restart":
            fields["restart_overhead_s"] = float(value)
        elif key == "interval":
            fields["checkpoint_interval_s"] = float(value)
        else:
            raise ValueError(
                f"unknown recovery spec key {key!r}; expected write, restart, "
                "interval or elastic"
            )
    return RecoveryModel(**fields)


# ------------------------------------------------------------ time to train
@dataclass(frozen=True)
class TimeToTrainDistribution(SampleStatistics):
    """Monte-Carlo distribution of the wall-clock time to finish a job.

    ``samples`` are total wall-clock seconds to complete ``target_iterations``
    iterations under the failure process and recovery model; ``ideal_s`` is
    the failure-free time of the *fastest* per-replica iteration time
    (``target_iterations`` of it), a true floor for every sample even when a
    jitter-composed per-replica sequence is walked.  The statistics come
    from :class:`repro.sim.stochastic.SampleStatistics`, shared with
    :class:`repro.sim.stochastic.MakespanDistribution`.
    """

    samples: Tuple[float, ...]
    failure_counts: Tuple[int, ...]
    ideal_s: float
    target_iterations: int
    checkpoint_interval_s: float
    seed: int
    spec: FailureSpec
    recovery: RecoveryModel

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("a TimeToTrainDistribution needs at least one sample")
        if len(self.samples) != len(self.failure_counts):
            raise ValueError("samples and failure_counts must align")
        if self.target_iterations < 1:
            raise ValueError("target_iterations must be >= 1")

    @property
    def mean_failures(self) -> float:
        return math.fsum(self.failure_counts) / len(self.failure_counts)

    @property
    def expected_slowdown(self) -> float:
        """Mean time-to-train over the ideal (failure-free) time."""
        return self.mean_s / self.ideal_s if self.ideal_s > 0 else 1.0

    def score(self, objective: str) -> float:
        """A ``ttrain_*`` objective's statistic rescaled to per-iteration
        seconds -- the number a failure-adjusted search minimises (units
        comparable to iteration time, so the analytic pruning floors stay
        valid lower bounds)."""
        return self.statistic(ttrain_objective_base(objective)) / self.target_iterations

    def to_json_dict(self) -> dict:
        """Plain-JSON mapping; samples in draw order as exact hex floats."""
        return {
            "samples": hex_floats(self.samples),
            "failure_counts": list(self.failure_counts),
            "ideal_s": hex_float(self.ideal_s),
            "target_iterations": self.target_iterations,
            "checkpoint_interval_s": hex_float(self.checkpoint_interval_s),
            "seed": self.seed,
            "spec": self.spec.to_json_dict(),
            "recovery": self.recovery.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TimeToTrainDistribution":
        """Inverse of :meth:`to_json_dict` -- compares ``==`` to the original."""
        return cls(
            samples=from_hex_floats(data["samples"]),
            failure_counts=tuple(data["failure_counts"]),
            ideal_s=from_hex_float(data["ideal_s"]),
            target_iterations=data["target_iterations"],
            checkpoint_interval_s=from_hex_float(data["checkpoint_interval_s"]),
            seed=data["seed"],
            spec=FailureSpec.from_json_dict(data["spec"]),
            recovery=RecoveryModel.from_json_dict(data["recovery"]),
        )


#: Entries of the arrival-stream memo.  A fleet round reads a handful of
#: ``(seed, replica)`` streams; the bound matters only to long-lived
#: processes sweeping many seeds, rank counts or specs.
_ARRIVAL_MEMO_SIZE = 128

#: Events of one stream kept for sharing.  A walk reading further (a
#: pathological configuration interrupted thousands of times) continues on a
#: private copy of the stream that keeps nothing, so the memo holds at most
#: ``_ARRIVAL_MEMO_SIZE * _SHARED_EVENTS`` events.
_SHARED_EVENTS = 1024

#: Serialises extending a shared stream across threads.
_ARRIVAL_LOCK = threading.Lock()


class _ArrivalStream:
    """One replica's merged failure and preemption events, in time order.

    Per-rank arrivals merge by ``(time, rank)`` -- a rank's next arrival
    joins the merge only once its previous one is taken -- and a failure
    comes ahead of a preemption at the same instant.  The stream is a pure
    function of its key, never of an iteration time, so
    :func:`_arrival_stream` shares one copy between every walk of the
    process, together with the first :data:`_SHARED_EVENTS` events drawn
    from it (``events``).
    """

    def __init__(
        self,
        spec: FailureSpec,
        num_ranks: int,
        seed: int,
        replica: int,
        gpus_per_node: int,
    ) -> None:
        self._spec = spec
        self._num_ranks = num_ranks
        self._gpus_per_node = gpus_per_node
        self._heap: List[Tuple[float, int, int, bool]] = []
        self._arrivals: List[_RankArrivals] = []
        if math.isfinite(spec.mtbf_s):
            for rank in range(num_ranks):
                arrivals = _RankArrivals(spec, rank, seed, replica)
                self._arrivals.append(arrivals)
                time_s, correlated = arrivals.next_event()
                heapq.heappush(self._heap, (time_s, 0, rank, correlated))
        self._next_preempt_index = 1
        self.events: List[FailureEvent] = []
        #: Loop-top records of the replica's walk with an infinite target,
        #: one list per recovery key (see simulate_time_to_train).
        self.prefixes: dict = {}
        self.prefix_lock = threading.Lock()

    def draw(self) -> FailureEvent:
        """Take the next interruption off the merge (``events`` untouched)."""
        preempt_time = (
            self._next_preempt_index * self._spec.preempt_every_s
            if math.isfinite(self._spec.preempt_every_s) else math.inf
        )
        if self._heap and self._heap[0][0] <= preempt_time:
            time_s, _, rank, correlated = heapq.heappop(self._heap)
            arrivals = self._arrivals[rank]
            refill, refill_corr = arrivals.next_event()
            heapq.heappush(self._heap, (refill, 0, rank, refill_corr))
            ranks = (
                _node_ranks(rank, self._num_ranks, self._gpus_per_node)
                if correlated else (rank,)
            )
            return FailureEvent(time_s, ranks, "failure", 0.0)
        self._next_preempt_index += 1
        return FailureEvent(
            preempt_time, tuple(range(self._num_ranks)), "preemption",
            self._spec.preempt_notice_s,
        )

    def fork(self) -> "_ArrivalStream":
        """A private copy of the merge state (generators included), with no
        events: it continues the stream from where this one stands."""
        tail = copy.copy(self)
        tail._arrivals = copy.deepcopy(self._arrivals)
        tail._heap = list(self._heap)
        tail.events = []
        return tail


@functools.lru_cache(maxsize=_ARRIVAL_MEMO_SIZE)
def _arrival_stream(
    spec: FailureSpec, num_ranks: int, seed: int, replica: int, gpus_per_node: int,
) -> _ArrivalStream:
    """The process-wide merged event stream of one replica."""
    return _ArrivalStream(spec, num_ranks, seed, replica, gpus_per_node)


def clear_failure_arrival_memo() -> None:
    """Drop every memoized arrival stream (``clear_fastpath_caches`` runs it)."""
    _arrival_stream.cache_clear()


class _LazyTrace:
    """A walk's cursor over one replica's shared :class:`_ArrivalStream`.

    Feeds :func:`simulate_time_to_train` events in time order without a
    horizon: the shared events are extended only when a cursor reads past
    their end, so every walk of the same replica reuses the same draws.  Past
    :data:`_SHARED_EVENTS` the cursor draws from a private fork instead, and
    its position no longer names its state.
    """

    def __init__(
        self,
        spec: FailureSpec,
        num_ranks: int,
        seed: int,
        replica: int,
        gpus_per_node: int,
    ) -> None:
        self._stream = _arrival_stream(spec, num_ranks, seed, replica, gpus_per_node)
        self._events = self._stream.events
        self._position = 0
        self._tail: Optional[_ArrivalStream] = None

    def next_event(self) -> FailureEvent:
        """The next interruption strictly after the previous one returned."""
        position = self._position
        events = self._events
        if position < len(events):
            self._position = position + 1
            return events[position]
        if position < _SHARED_EVENTS:
            # Another thread may extend the same stream between the length
            # check and the append.
            with _ARRIVAL_LOCK:
                while len(events) <= position:
                    events.append(self._stream.draw())
            self._position = position + 1
            return events[position]
        if self._tail is None:
            # The shared stream never draws past _SHARED_EVENTS, so its
            # merge state is final here.
            self._tail = self._stream.fork()
        return self._tail.draw()

    def shared_position(self) -> Optional[int]:
        """Shared events read so far, or None once reading a private fork."""
        return self._position if self._tail is None else None

    def seek(self, position: int) -> FailureEvent:
        """Rewind or advance to ``position``; return the event read last there."""
        self._position = position
        self._tail = None
        return self._events[position - 1]


def simulate_time_to_train(
    iteration_time_s: Union[float, Sequence[float]],
    target_iterations: int,
    spec: FailureSpec,
    recovery: RecoveryModel = DEFAULT_RECOVERY,
    num_ranks: int = 1,
    replicas: int = DEFAULT_REPLICAS,
    seed: int = 0,
    gpus_per_node: Optional[int] = None,
    ci_halfwidth: Optional[float] = None,
    objective: str = "ttrain_mean",
    min_replicas: int = MIN_SEQUENTIAL_REPLICAS,
) -> TimeToTrainDistribution:
    """Walk the checkpoint-restart process: time to finish a job under failures.

    Each Monte-Carlo replica draws its own failure/preemption arrivals
    (lazily, so no horizon guess is needed) and walks the job forward:

    * useful work accrues at full speed between interruptions; every
      ``interval`` seconds of useful work the job pauses
      ``checkpoint_write_s`` to make the progress durable.  A free write
      (interval ``0`` from :func:`optimal_checkpoint_interval`) is the
      continuous-checkpointing limit: progress is durable up to every
      interruption instant and a failure never loses work;
    * a **failure** loses the work since the last durable checkpoint and
      costs ``restart_overhead_s``; under an elastic recovery model the job
      instead continues on the surviving ranks *without* the restart gap, at
      throughput degraded by ``num_ranks / surviving``, until an inelastic
      event (a preemption, or attrition through ``min_rank_fraction``)
      restarts it at full strength (rolling failures keep shrinking it;
      repeat arrivals from ranks already removed are ignored, and a
      correlated set overlapping earlier casualties removes only its newly
      failed ranks);
    * a **preemption** with a notice window long enough to write a
      checkpoint loses nothing (the checkpoint completes inside the notice);
      a shorter notice loses the uncheckpointed work like a failure.  Either
      way the job restarts on fresh capacity after ``restart_overhead_s``;
    * the walk stops when ``target_iterations`` iterations of useful work
      are durable, or at :data:`MAX_SLOWDOWN` times the ideal time
      (pathological configurations report the cap instead of spinning).

    ``iteration_time_s`` may be a scalar (the deterministic iteration time)
    or a per-replica sequence (e.g. jittered makespans plus serial overhead:
    replica ``r`` walks with iteration time ``iteration_time_s[r %% len]``),
    composing the failure process with the jitter layer without coupling
    their random streams.  The jitter-composed sequence the training systems
    hand in comes from *one* batched sweep over the candidate's compiled
    :class:`~repro.sim.fastpath.ScheduleProgram`
    (:func:`repro.sim.stochastic.monte_carlo_timeline` stacks all replicas
    into :func:`~repro.sim.fastpath.critical_path_timeline_batch` calls);
    the walk cannot be batched -- each interruption reshapes the rest of
    it -- but each replica is walked once per process.  Replica ``r``'s
    events depend only on ``(spec, num_ranks, seed, r, gpus_per_node)``,
    never on the iteration time, so every walk reads one memoized copy of
    them (:func:`repro.sim.fastpath.clear_fastpath_caches` drops it).  And
    a segmented walk (``0 < interval < inf``) reads the job length only in
    the tests ``target_work - durable <= interval`` and ``clock >= cap``,
    monotone along the walk: the walk with an infinite target, recorded at
    its outer-loop tops on the stream, is every finite walk up to the
    first top where either test fires, so a walk resumes there.  Between
    events the walk fast-forwards whole checkpoint segments in a tight loop
    that keeps the per-segment float order
    (``end = (start + interval * slowdown) + write``, ``durable +=
    interval``), so the samples are the segment-by-segment walk's, bit for
    bit.

    Variance-aware budgeting: with ``ci_halfwidth`` set, the walk stops
    adding replicas once at least ``min_replicas`` are in and the
    ``objective`` estimator's 95% CI half-width
    (:func:`repro.sim.stochastic.distribution_ci_halfwidth`) is under the
    bound (:meth:`repro.sim.stochastic.ReplicaBudget.stops`); ``replicas``
    remains the hard cap.  The bound is expressed in
    *effective per-iteration* seconds -- the same units as
    :meth:`TimeToTrainDistribution.score` and as the makespan bound of
    :func:`repro.sim.stochastic.monte_carlo_timeline` -- so one knob serves
    the whole stack.  Replica ``r``'s arrival streams never depend on the
    replication count, so an adaptive run's samples are a prefix of the
    fixed-cap run's.

    Null-process collapse: with :data:`NULL_FAILURES` every sample is
    *exactly* ``target_iterations * iteration_time`` -- no variates drawn,
    no checkpoint cost charged (nothing to recover from), bit for bit.
    """
    require_count("target_iterations", target_iterations, 1)
    require_count("num_ranks", num_ranks, 1)
    if gpus_per_node is not None:
        require_count("gpus_per_node", gpus_per_node, 1)
    budget = ReplicaBudget(replicas, ci_halfwidth, objective, min_replicas)
    if isinstance(iteration_time_s, (int, float)):
        per_replica = [float(iteration_time_s)]
    else:
        per_replica = [float(value) for value in iteration_time_s]
        if not per_replica:
            raise ValueError("iteration_time_s sequence must not be empty")
    for value in per_replica:
        if not math.isfinite(value) or value <= 0:
            raise ValueError(f"iteration times must be finite and positive (got {value})")
    node_size = gpus_per_node if gpus_per_node is not None else (spec.gpus_per_node or 8)
    # The floor must hold for *every* replica, so a jitter-composed sequence
    # anchors the ideal at its fastest iteration time.
    ideal_s = target_iterations * min(per_replica)
    interval = recovery.interval_for(spec, num_ranks)

    if spec.is_null:
        null_samples: List[float] = []
        for replica in range(replicas):
            null_samples.append(
                target_iterations * per_replica[replica % len(per_replica)]
            )
            if budget.stops(null_samples, target_iterations):
                break
        return TimeToTrainDistribution(
            samples=tuple(null_samples),
            failure_counts=(0,) * len(null_samples),
            ideal_s=ideal_s,
            target_iterations=target_iterations,
            checkpoint_interval_s=interval,
            seed=seed,
            spec=spec,
            recovery=recovery,
        )

    write = recovery.checkpoint_write_s
    restart = recovery.restart_overhead_s
    # interval == 0 only arises from the Young/Daly form with a free write
    # (an explicit checkpoint_interval_s must be positive): the walk models
    # that limit as *continuous* checkpointing -- progress is durable up to
    # every interruption instant, nothing is ever replayed, only the
    # recovery itself is paid -- instead of stepping zero-length segments.
    continuous = interval == 0.0
    # Whether work is cut into checkpoint segments at all: a free write is
    # continuous, an infinite interval never checkpoints before the end.
    segmented = not continuous and not math.isinf(interval)
    min_ranks = max(int(math.ceil(recovery.min_rank_fraction * num_ranks)), 1)
    # Every value the walk reads besides the stream and the job length.
    prefix_key = (interval, write, restart, recovery.elastic, min_ranks)

    def shared(record: tuple, target_work: float, cap: float) -> bool:
        # Whether a segmented walk to (target_work, cap) reaches this loop
        # top of the infinite walk in its state: the walk tests target_work
        # and cap only like this, monotone in durable and clock, which
        # never decrease.
        return target_work - record[0] > interval and record[1] < cap

    def walk(trace: _LazyTrace, record: tuple, target_work: float, cap: float,
             records: Optional[List[tuple]] = None, finish: tuple = ()) -> tuple:
        # The walk from a loop-top record; with records, the infinite walk
        # appending its loop tops until one fails shared(..., *finish).
        durable, clock, surviving, dead, interruptions, position = record
        dead = set(dead)     # ranks removed during elastic continuation
        segment_start = clock  # wall time the current work segment began
        event = trace.seek(position) if position else trace.next_event()
        # One pass per work segment that completes or meets an event: the
        # segment runs from segment_start until the next checkpoint write
        # completes or the job finishes, whichever is first.
        while durable < target_work and clock < cap:
            if records is not None:
                position = trace.shared_position()
                # Past the shared events no position names the state: a
                # record no walk shares ends the prefix.
                records.append(
                    (math.inf, math.inf) if position is None else
                    (durable, clock, surviving, tuple(dead), interruptions, position)
                )
                if not shared(records[-1], *finish):
                    break
            slowdown = num_ranks / surviving
            remaining = target_work - durable
            if segmented and remaining > interval:
                # A checkpoint segment: interval of work, then the write.
                step = interval * slowdown
                segment_end = segment_start + step + write
                event_time = event.time_s
                if event_time >= segment_end:
                    # Fast-forward: complete checkpoint segments one at a
                    # time, in the float order above, while they end before
                    # the next event, the cap is not reached and the next
                    # one is not the last (durable >= target_work implies
                    # remaining <= interval).  The loop above takes over at
                    # the first segment that differs.
                    while True:
                        durable += interval
                        if target_work - durable <= interval or segment_end >= cap:
                            break
                        next_end = segment_end + step + write
                        if event_time < next_end:
                            break
                        segment_end = next_end
                    clock = segment_start = segment_end
                    continue
                segment_durable = interval
            else:
                # The last segment (all of the work when unsegmented): the
                # remaining work, no write.
                segment_end = segment_start + remaining * slowdown
                if event.time_s >= segment_end:
                    durable += remaining
                    clock = segment_start = segment_end
                    continue
                segment_durable = remaining
            # The next event interrupts this segment.
            lost_event = event
            event = trace.next_event()
            newly_dead = [
                r for r in lost_event.ranks if r < num_ranks and r not in dead
            ]
            if lost_event.kind == "failure" and not newly_dead:
                # Every rank in the event already failed during this
                # elastic continuation: the dead cannot fail again, the
                # job continues undisturbed.
                continue
            interruptions += 1
            # Work accrued in this segment since segment_start (work
            # precedes the checkpoint write, so it accrues at 1/slowdown
            # up to the segment's durable amount).
            busy = max(lost_event.time_s - segment_start, 0.0)
            worked = min(busy / slowdown, segment_durable)
            if continuous or (
                lost_event.kind == "preemption" and lost_event.notice_s >= write
            ):
                # Proactive checkpoint inside the notice window (or free
                # continuous checkpointing): the progress at the
                # interruption instant is durable.
                durable = min(durable + worked, target_work)
            # Failures (and short-notice preemptions) lose the segment.
            if (
                recovery.elastic
                and lost_event.kind == "failure"
                and surviving - len(newly_dead) >= min_ranks
            ):
                # Elastic continuation: the surviving ranks restore the
                # last checkpoint and keep going at degraded throughput
                # without waiting out the restart overhead (there is no
                # replacement to wait for).  Only ranks not already dead
                # shrink the job -- a correlated set overlapping earlier
                # casualties must not double-count attrition.
                dead.update(newly_dead)
                surviving = num_ranks - len(dead)
                clock = lost_event.time_s
            else:
                surviving = num_ranks
                dead.clear()
                clock = lost_event.time_s + restart
            segment_start = clock
            # Skip events that fired inside the restart gap: the job is
            # not running, there is nothing to interrupt.
            while event.time_s < segment_start:
                event = trace.next_event()
        return clock, interruptions

    samples: List[float] = []
    counts: List[int] = []
    for replica in range(replicas):
        iter_s = per_replica[replica % len(per_replica)]
        target_work = target_iterations * iter_s
        cap = max(target_work, 1e-12) * MAX_SLOWDOWN
        trace = _LazyTrace(spec, num_ranks, seed, replica, node_size)
        # (durable useful work, wall clock, surviving ranks, dead ranks,
        # interruptions, cursor position) at time 0, before any event.
        record: tuple = (0.0, 0.0, num_ranks, (), 0, 0)
        if segmented and shared(record, target_work, cap):
            # Resume at the last loop top this walk shares with the
            # replica's infinite walk, extending that walk first if the
            # finish line may lie past its records.
            stream = trace._stream
            with stream.prefix_lock:
                records = stream.prefixes.setdefault(prefix_key, [])
                if not records or shared(records[-1], target_work, cap):
                    start = records.pop() if records else record
                    walk(trace, start, math.inf, math.inf, records, (target_work, cap))
                record = records[bisect.bisect_left(
                    records, True, key=lambda kept: not shared(kept, target_work, cap),
                ) - 1]
        clock, interruptions = walk(trace, record, target_work, cap)
        samples.append(min(clock, cap))
        counts.append(interruptions)
        if budget.stops(samples, target_iterations):
            break
    return TimeToTrainDistribution(
        samples=tuple(samples),
        failure_counts=tuple(counts),
        ideal_s=ideal_s,
        target_iterations=target_iterations,
        checkpoint_interval_s=interval,
        seed=seed,
        spec=spec,
        recovery=recovery,
    )

