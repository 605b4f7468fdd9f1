"""Parallelism strategy configuration (DP / TP / SP / CP / PP / Ulysses / ZeRO)."""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field, fields, replace
from enum import Enum

from repro.model.specs import ModelConfig


class DegenerateScheduleWarning(UserWarning):
    """A pipeline configuration whose schedule cannot hide the bubble.

    Raised (as a warning) when ``micro_batches < pipeline_parallel``: the
    schedule is still legal, but most stages idle most of the time, so the
    configuration is almost never what the user meant.  Constructing the
    config with ``strict_micro_batching=True`` turns the warning into a
    ``ValueError``.
    """


class RecomputeMode(Enum):
    """Activation rematerialisation mode of a training configuration."""

    NONE = "none"
    FULL = "full"
    TOKEN_WISE = "token_wise"  # MEMO's fine-grained swap/recompute


class OffloadMode(Enum):
    """Activation swapping mode of a training configuration."""

    NONE = "none"
    FULL = "full"
    TOKEN_WISE = "token_wise"


@dataclass(frozen=True)
class ParallelismConfig:
    """One point in the distributed-training strategy space.

    Attributes:
        tensor_parallel: Megatron TP degree (hidden-dimension sharding); we
            assume Megatron sequence parallelism is enabled alongside TP, as
            both baselines and MEMO do in the paper.
        context_parallel: ring-attention CP degree (sequence sharding inside
            attention).
        ulysses_parallel: DeepSpeed-Ulysses SP degree (head sharding inside
            attention, sequence sharding outside); limited by the head count.
        pipeline_parallel: PP degree (layer sharding).
        data_parallel: DP degree (replica count); together the degrees must
            multiply to the total GPU count.
        zero_stage: ZeRO optimizer stage applied to the DP group (0-3).
        recompute: activation recomputation mode.
        offload: activation swapping mode.
        micro_batches: number of pipeline micro-batches per iteration.
        strict_micro_batching: when True, ``micro_batches < pipeline_parallel``
            is rejected with a ``ValueError`` instead of a
            :class:`DegenerateScheduleWarning`.
    """

    tensor_parallel: int = 1
    context_parallel: int = 1
    ulysses_parallel: int = 1
    pipeline_parallel: int = 1
    data_parallel: int = 1
    zero_stage: int = 0
    recompute: RecomputeMode = RecomputeMode.NONE
    offload: OffloadMode = OffloadMode.NONE
    micro_batches: int = 1
    strict_micro_batching: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("tensor_parallel", "context_parallel", "ulysses_parallel",
                     "pipeline_parallel", "data_parallel", "micro_batches"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 <= self.zero_stage <= 3:
            raise ValueError("zero_stage must be between 0 and 3")
        if self.pipeline_parallel > 1 and self.micro_batches < self.pipeline_parallel:
            message = (
                f"micro_batches ({self.micro_batches}) < pipeline_parallel "
                f"({self.pipeline_parallel}): the pipeline schedule is degenerate "
                f"(bubble fraction {self.pipeline_bubble_lower_bound():.0%}); "
                "raise micro_batches or lower pipeline_parallel"
            )
            if self.strict_micro_batching:
                raise ValueError(message)
            warnings.warn(message, DegenerateScheduleWarning, stacklevel=2)

    def pipeline_bubble_lower_bound(self) -> float:
        """Analytic 1F1B/GPipe bubble fraction ``(p-1)/(m+p-1)`` of this config."""
        if self.pipeline_parallel <= 1:
            return 0.0
        return (self.pipeline_parallel - 1) / (self.micro_batches + self.pipeline_parallel - 1)

    def per_micro_batch(self) -> "ParallelismConfig":
        """This strategy with ``micro_batches`` pinned to the PP degree.

        ``micro_batches`` is derived from the global batch, and lowering one
        micro-batch of a stage never reads it; the pinned copy is the one
        canonical form every global batch shares, and it never warns.
        """
        return replace(self, micro_batches=self.pipeline_parallel)

    def per_micro_batch_key(self) -> tuple:
        """Hashable identity of :meth:`per_micro_batch`, without building it."""
        return _PER_MICRO_BATCH_FIELDS(self)

    @property
    def has_degenerate_schedule(self) -> bool:
        """True when fewer micro-batches than pipeline stages are configured."""
        return self.pipeline_parallel > 1 and self.micro_batches < self.pipeline_parallel

    # ------------------------------------------------------------ derived sizes
    @property
    def total_gpus(self) -> int:
        """Number of GPUs this configuration occupies."""
        return (
            self.tensor_parallel
            * self.context_parallel
            * self.ulysses_parallel
            * self.pipeline_parallel
            * self.data_parallel
        )

    @property
    def model_parallel_size(self) -> int:
        """GPUs jointly holding one sequence's activations (TP x CP x Ulysses)."""
        return self.tensor_parallel * self.context_parallel * self.ulysses_parallel

    @property
    def sequence_shards(self) -> int:
        """Ways the sequence dimension is split outside the TP group."""
        return self.context_parallel * self.ulysses_parallel

    def layers_per_stage(self, model: ModelConfig) -> int:
        """Transformer layers per pipeline stage."""
        return model.num_layers // self.pipeline_parallel

    def local_sequence_length(self, sequence_length: int) -> int:
        """Tokens held per GPU after sequence sharding (CP and Ulysses)."""
        return -(-sequence_length // self.sequence_shards)

    def with_updates(self, **kwargs) -> "ParallelismConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def to_json_dict(self) -> dict:
        """Plain-JSON mapping; inverse of :meth:`from_json_dict`."""
        return {
            "tensor_parallel": self.tensor_parallel,
            "context_parallel": self.context_parallel,
            "ulysses_parallel": self.ulysses_parallel,
            "pipeline_parallel": self.pipeline_parallel,
            "data_parallel": self.data_parallel,
            "zero_stage": self.zero_stage,
            "recompute": self.recompute.value,
            "offload": self.offload.value,
            "micro_batches": self.micro_batches,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ParallelismConfig":
        """Rebuild a config serialized by :meth:`to_json_dict`.

        A degenerate PP point re-raises its :class:`DegenerateScheduleWarning`
        on reconstruction -- parsing a report warns exactly like building the
        config did (``strict_micro_batching`` is presentation-independent
        behaviour, not identity, and is deliberately not serialized).
        """
        return cls(
            tensor_parallel=data["tensor_parallel"],
            context_parallel=data["context_parallel"],
            ulysses_parallel=data["ulysses_parallel"],
            pipeline_parallel=data["pipeline_parallel"],
            data_parallel=data["data_parallel"],
            zero_stage=data["zero_stage"],
            recompute=RecomputeMode(data["recompute"]),
            offload=OffloadMode(data["offload"]),
            micro_batches=data["micro_batches"],
        )

    def describe(self) -> str:
        """Short human-readable description (used in experiment reports)."""
        parts = []
        if self.tensor_parallel > 1:
            parts.append(f"TP={self.tensor_parallel}")
        if self.context_parallel > 1:
            parts.append(f"CP={self.context_parallel}")
        if self.ulysses_parallel > 1:
            parts.append(f"Ulysses={self.ulysses_parallel}")
        if self.pipeline_parallel > 1:
            parts.append(f"PP={self.pipeline_parallel}")
        if self.data_parallel > 1:
            parts.append(f"DP={self.data_parallel}")
        if self.zero_stage:
            parts.append(f"ZeRO-{self.zero_stage}")
        parts.append(f"recompute={self.recompute.value}")
        parts.append(f"offload={self.offload.value}")
        return ", ".join(parts) if parts else "single GPU"


_PER_MICRO_BATCH_FIELDS = operator.attrgetter(*(
    f.name for f in fields(ParallelismConfig) if f.compare and f.name != "micro_batches"
))
