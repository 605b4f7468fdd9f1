"""Workload-grid specs: axes over models, context lengths, clusters, batches.

A grid spec is a small JSON (or YAML, when PyYAML is importable) mapping with
two sections::

    {
      "axes": {                 # cartesian product, any axis optional
        "model": ["7B", "13B"],
        "seqlen_k": [64, 256],  # thousands of tokens; or "sequence_length"
        "gpus": [16, 32],
        "global_batch": [128]
      },
      "points": [               # optional explicit extras, same keys as axes
        {"model": "7B", "seqlen_k": 1024, "gpus": 64, "global_batch": 256}
      ],
      "search": {               # shared knobs applied to every point
        "system": "megatron",   # megatron | memo | deepspeed
        "jitter": "compute=0.05",
        "failures": "mtbf=20000",
        "recovery": "write=30,restart=300",
        "objective": "p99",
        "replicas": 16,
        "seed": 0,
        "target_iterations": 1000
      }
    }

Expansion is deterministic: axes are iterated in the fixed order (model,
sequence length, gpus, global batch), explicit points follow the axes
product, and duplicate points collapse onto their first occurrence -- so the
same spec always produces the same :class:`WorkloadPoint` sequence, which is
what makes fleet reports comparable across runs and hosts.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.config import tokens
from repro.parallel.search import SearchConfig
from repro.sim.stochastic import DEFAULT_REPLICAS
from repro.systems.base import TrainingSystem, Workload
from repro.systems.deepspeed import DeepSpeedSystem
from repro.systems.megatron import MegatronSystem
from repro.systems.memo import MemoSystem


class GridSpecError(ValueError):
    """A workload-grid spec is malformed (unknown key, bad value, empty)."""


#: Training systems a grid may plan for, by name.
SYSTEMS = {"megatron": MegatronSystem, "memo": MemoSystem, "deepspeed": DeepSpeedSystem}
SYSTEM_NAMES: Tuple[str, ...] = tuple(SYSTEMS)

_AXIS_KEYS = ("model", "seqlen_k", "sequence_length", "gpus", "global_batch")
_SEARCH_KEYS = (
    "system", "jitter", "failures", "recovery", "objective",
    "replicas", "seed", "target_iterations",
)
#: The ``search`` keys that set a :class:`SearchConfig` field, and that field.
CONFIG_FIELDS: Dict[str, str] = {
    "jitter": "jitter", "failures": "failures", "recovery": "recovery",
    "objective": "risk_objective", "replicas": "monte_carlo_replicas",
    "seed": "monte_carlo_seed", "target_iterations": "target_iterations",
}


@dataclass(frozen=True)
class WorkloadPoint:
    """One grid cell: a concrete workload the planner searches a strategy for."""

    model: str
    sequence_length: int
    num_gpus: int
    global_batch_samples: int

    def __post_init__(self) -> None:
        # The workload owns the shape rules: a bad grid fails at load time.
        try:
            self.workload()
        except ValueError as error:
            raise GridSpecError(f"bad workload point: {error}") from None

    def workload(self) -> Workload:
        """The equivalent single-run :class:`~repro.systems.base.Workload`."""
        return Workload(
            self.model, self.sequence_length, self.num_gpus,
            global_batch_samples=self.global_batch_samples,
        )

    def label(self) -> str:
        """Short deterministic identifier used in reports and logs."""
        return (
            f"{self.model}/seq{self.sequence_length}"
            f"/gpus{self.num_gpus}/batch{self.global_batch_samples}"
        )

    def to_json_dict(self) -> dict:
        """Plain-JSON mapping; inverse of :meth:`from_json_dict`."""
        return {
            "model": self.model,
            "sequence_length": self.sequence_length,
            "gpus": self.num_gpus,
            "global_batch": self.global_batch_samples,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "WorkloadPoint":
        """Rebuild a point serialized by :meth:`to_json_dict`."""
        return cls(
            model=data["model"],
            sequence_length=data["sequence_length"],
            num_gpus=data["gpus"],
            global_batch_samples=data["global_batch"],
        )


@dataclass(frozen=True)
class SearchSettings:
    """Shared search knobs applied identically to every grid point.

    The stochastic specs travel as their CLI grammar strings, so a fleet row
    reproduces with a copy-pasteable single-workload command.  The settings
    are validated once, at load, by building :attr:`config`: a bad value
    raises :class:`GridSpecError` carrying the
    :class:`~repro.parallel.search.SearchConfig` message.
    """

    system: str = "megatron"
    jitter: Optional[str] = None
    failures: Optional[str] = None
    recovery: Optional[str] = None
    objective: str = "mean"
    replicas: int = DEFAULT_REPLICAS
    seed: int = 0
    target_iterations: Optional[int] = None
    #: The search config every point's system runs with (auto schedule sweep).
    config: SearchConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.system not in SYSTEM_NAMES:
            raise GridSpecError(
                f"unknown system {self.system!r}; expected one of {SYSTEM_NAMES}"
            )
        knobs = {name: getattr(self, key) for key, name in CONFIG_FIELDS.items()}
        if self.target_iterations is None:
            del knobs["target_iterations"]  # the config's default
        try:
            config = SearchConfig(pipeline_schedule="auto", **knobs)
        except ValueError as error:
            raise GridSpecError(f"bad search settings: {error}") from None
        object.__setattr__(self, "config", config)

    def build_system(self) -> TrainingSystem:
        """Instantiate the configured training system on :attr:`config`."""
        return SYSTEMS[self.system](config=self.config)

    def to_json_dict(self) -> dict:
        """Plain-JSON mapping; inverse of :meth:`from_json_dict`."""
        return {
            "system": self.system,
            "jitter": self.jitter,
            "failures": self.failures,
            "recovery": self.recovery,
            "objective": self.objective,
            "replicas": self.replicas,
            "seed": self.seed,
            "target_iterations": self.target_iterations,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SearchSettings":
        """Rebuild settings serialized by :meth:`to_json_dict`."""
        return cls(**{key: data.get(key, getattr(cls, key)) for key in _SEARCH_KEYS})


def _as_list(value: Union[Sequence, str, int, float]) -> List:
    """Normalise a scalar axis value to a one-element list."""
    if isinstance(value, (str, int, float)):
        return [value]
    if isinstance(value, Sequence):
        return list(value)
    raise GridSpecError(f"axis values must be scalars or lists, got {value!r}")


def _point_sequence_length(entry: Mapping, context: str) -> int:
    """Resolve the two spellings of the sequence-length axis for one point."""
    if "seqlen_k" in entry and "sequence_length" in entry:
        raise GridSpecError(
            f"{context}: seqlen_k and sequence_length are mutually exclusive"
        )
    if "sequence_length" in entry:
        return entry["sequence_length"]
    return tokens(entry.get("seqlen_k", 256))


@dataclass(frozen=True)
class WorkloadGrid:
    """A deterministic, deduplicated sequence of workload points plus the
    shared search settings the planner applies to each of them."""

    points: Tuple[WorkloadPoint, ...]
    search: SearchSettings

    def __post_init__(self) -> None:
        if not self.points:
            raise GridSpecError("the grid expands to zero workload points")
        seen = set()
        for point in self.points:
            if point in seen:
                raise GridSpecError(f"duplicate workload point {point.label()}")
            seen.add(point)

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def from_spec(cls, spec: Mapping) -> "WorkloadGrid":
        """Expand a spec mapping (see the module docstring for the grammar).

        Deterministic: axes iterate in the fixed (model, sequence length,
        gpus, global batch) order, explicit ``points`` follow the axes
        product in input order, duplicates collapse onto the first
        occurrence.
        """
        if not isinstance(spec, Mapping):
            raise GridSpecError(f"grid spec must be a mapping, got {type(spec).__name__}")
        unknown = set(spec) - {"axes", "points", "search"}
        if unknown:
            raise GridSpecError(f"unknown grid spec sections: {sorted(unknown)}")

        axes = spec.get("axes", {})
        if not isinstance(axes, Mapping):
            raise GridSpecError("axes must be a mapping")
        unknown = set(axes) - set(_AXIS_KEYS)
        if unknown:
            raise GridSpecError(
                f"unknown axes {sorted(unknown)}; expected {sorted(_AXIS_KEYS)}"
            )
        if "seqlen_k" in axes and "sequence_length" in axes:
            raise GridSpecError("axes seqlen_k and sequence_length are mutually exclusive")

        models = [str(m) for m in _as_list(axes.get("model", ["7B"]))]
        if "sequence_length" in axes:
            seqlens = _as_list(axes["sequence_length"])
        else:
            seqlens = [tokens(k) for k in _as_list(axes.get("seqlen_k", [256]))]
        gpus = _as_list(axes.get("gpus", [8]))
        batches = _as_list(axes.get("global_batch", [16]))

        expanded: List[WorkloadPoint] = []
        seen: set = set()
        for model, seqlen, num_gpus, batch in itertools.product(
            models, seqlens, gpus, batches,
        ):
            point = WorkloadPoint(model, seqlen, num_gpus, batch)
            if point not in seen:
                seen.add(point)
                expanded.append(point)

        explicit = spec.get("points", [])
        if not isinstance(explicit, Sequence) or isinstance(explicit, (str, bytes)):
            raise GridSpecError("points must be a list of mappings")
        for index, entry in enumerate(explicit):
            if not isinstance(entry, Mapping):
                raise GridSpecError(f"points[{index}] must be a mapping")
            unknown = set(entry) - set(_AXIS_KEYS)
            if unknown:
                raise GridSpecError(f"points[{index}]: unknown keys {sorted(unknown)}")
            point = WorkloadPoint(
                model=str(entry.get("model", "7B")),
                sequence_length=_point_sequence_length(entry, f"points[{index}]"),
                num_gpus=entry.get("gpus", 8),
                global_batch_samples=entry.get("global_batch", 16),
            )
            if point not in seen:
                seen.add(point)
                expanded.append(point)

        search_spec = spec.get("search", {})
        if not isinstance(search_spec, Mapping):
            raise GridSpecError("search must be a mapping")
        unknown = set(search_spec) - set(_SEARCH_KEYS)
        if unknown:
            raise GridSpecError(
                f"unknown search knobs {sorted(unknown)}; expected {sorted(_SEARCH_KEYS)}"
            )
        return cls(points=tuple(expanded), search=SearchSettings(**search_spec))

    @classmethod
    def from_file(cls, path: Union[str, os.PathLike]) -> "WorkloadGrid":
        """Load a spec file: ``.json`` always, ``.yaml``/``.yml`` when PyYAML
        is installed (a missing dependency is a spec error, not a crash)."""
        path = os.fspath(path)
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        if path.endswith((".yaml", ".yml")):
            try:
                import yaml
            except ImportError:
                raise GridSpecError(
                    f"{path}: YAML specs need PyYAML, which is not installed; "
                    "use a JSON spec instead"
                ) from None
            spec = yaml.safe_load(text)
        else:
            try:
                spec = json.loads(text)
            except json.JSONDecodeError as error:
                raise GridSpecError(f"{path}: invalid JSON: {error}") from None
        return cls.from_spec(spec)

    def to_json_dict(self) -> dict:
        """Plain-JSON mapping echoing the expanded grid."""
        return {
            "points": [point.to_json_dict() for point in self.points],
            "search": self.search.to_json_dict(),
        }
