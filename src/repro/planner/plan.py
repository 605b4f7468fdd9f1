"""Memory plan produced by the planner and consumed by the planned allocator."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple


class PlanEntry(NamedTuple("PlanEntry", [("tensor_id", str), ("address", int), ("size", int)])):
    """Planned placement of one tensor: a fixed address and size."""

    __slots__ = ()

    def __new__(cls, tensor_id: str, address: int, size: int) -> "PlanEntry":
        if address < 0:
            raise ValueError("address must be non-negative")
        if size <= 0:
            raise ValueError("size must be positive")
        return tuple.__new__(cls, (tensor_id, address, size))

    @property
    def end(self) -> int:
        return self.address + self.size

    def overlaps(self, other: "PlanEntry") -> bool:
        """Whether the two planned regions share any byte."""
        return self.address < other.end and other.address < self.end


class TiledEntries(Mapping[str, PlanEntry]):
    """Read-only entries of a plan that repeats one layer's tile in every layer.

    Holds the model-level entries, the tile as ``(suffix, address, size)`` and
    the layer count.  The ``L{k}.<suffix>`` entries, in the order a per-layer
    copy inserts them (model-level first, then layer by layer), are built once,
    on the first read that needs them; ``len`` never builds them.

    Raises:
        ValueError: if a tile suffix repeats or a model-level id is a layer
            id, naming an id a per-layer copy would insert twice.
    """

    __slots__ = ("_model", "_tile", "_num_layers", "_table")

    def __init__(self, model: Dict[str, PlanEntry], tile: Sequence[Tuple[str, int, int]], num_layers: int) -> None:
        seen = set()
        for suffix, _, _ in tile:
            if suffix in seen and num_layers:
                raise ValueError(f"tensor {'L0.' + suffix!r} already planned")
            seen.add(suffix)
        for tensor_id in model:
            head, _, suffix = tensor_id.partition(".")
            layer = head[1:]
            if suffix in seen and layer.isdecimal() and head == f"L{int(layer)}" and int(layer) < num_layers:
                raise ValueError(f"tensor {tensor_id!r} already planned")
        self._model, self._tile, self._num_layers = model, tuple(tile), num_layers
        self._table: Optional[Dict[str, PlanEntry]] = None

    def _entries(self) -> Dict[str, PlanEntry]:
        if self._table is None:
            self._table = dict(self._model)
            for layer in range(self._num_layers):
                for suffix, address, size in self._tile:
                    tensor_id = f"L{layer}.{suffix}"
                    self._table[tensor_id] = PlanEntry(tensor_id, address, size)
        return self._table

    def __getitem__(self, tensor_id: str) -> PlanEntry:
        return self._entries()[tensor_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries())

    def __len__(self) -> int:
        return len(self._model) + len(self._tile) * self._num_layers

    def __repr__(self) -> str:
        return repr(self._entries())


@dataclass(frozen=True)
class MemoryPlan:
    """Address assignment for every tensor of a trace plus the resulting peak.

    Frozen, with read-only entries, because the planners memoize and share
    their plans (:meth:`repro.core.framework.MemoFramework.prepare` returns
    the same plan for the same shape).

    Attributes:
        entries: mapping from tensor id to its planned placement (a
            :class:`TiledEntries` for the bi-level planner's full plan).
        peak_bytes: total contiguous memory the plan needs (max end address).
        solver: name of the solver that produced the plan (for reporting).
    """

    entries: Mapping[str, PlanEntry] = field(default_factory=lambda: MappingProxyType({}))
    peak_bytes: int = 0
    solver: str = "unknown"

    @classmethod
    def of(cls, entries: Iterable[PlanEntry], solver: str) -> "MemoryPlan":
        """A plan holding ``entries`` in order (ids must be distinct), read-only."""
        table: Dict[str, PlanEntry] = {}
        for entry in entries:
            if entry.tensor_id in table:
                raise ValueError(f"tensor {entry.tensor_id!r} already planned")
            table[entry.tensor_id] = entry
        peak = max((address + size for _, address, size in table.values()), default=0)
        return cls(MappingProxyType(table), peak, solver)

    def get(self, tensor_id: str) -> Optional[PlanEntry]:
        return self.entries.get(tensor_id)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, tensor_id: str) -> bool:
        return tensor_id in self.entries

    @staticmethod
    def union(plans: Iterable["MemoryPlan"], solver: str = "composite") -> "MemoryPlan":
        """Union several disjoint plans into one."""
        return MemoryPlan.of((entry for plan in plans for entry in plan.entries.values()), solver)
