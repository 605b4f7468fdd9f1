"""Memory request primitives shared by the allocators and the planner.

A trace is an ordered sequence of :class:`MemoryRequest` objects, each a
``malloc`` or ``free`` of a named tensor, mirroring the paper's profiler output
format ``"malloc tensor_id size"`` / ``"free tensor_id size"`` (Section 4.3.2).
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, NamedTuple, Sequence, Tuple


class RequestKind(Enum):
    """Whether a request allocates or releases memory."""

    MALLOC = "malloc"
    FREE = "free"

    # Members are singletons, so identity hashing agrees with equality and
    # skips ``Enum.__hash__``'s Python-level call: hashing a trace tuple (the
    # DSA problem memo's key) hashes every request's kind.
    __hash__ = object.__hash__


class MemoryRequest(NamedTuple("MemoryRequest", [("kind", RequestKind), ("tensor_id", str), ("size", int)])):
    """One allocator request.

    Attributes:
        kind: malloc or free.
        tensor_id: unique name of the tensor the request refers to.
        size: size in bytes (the free size must match the malloc size).
    """

    __slots__ = ()

    def __new__(cls, kind: RequestKind, tensor_id: str, size: int) -> "MemoryRequest":
        if type(size) is not int:
            raise ValueError(f"request size must be an int, got {size!r}")
        if size <= 0:
            raise ValueError(f"request size must be positive, got {size}")
        if not tensor_id:
            raise ValueError("tensor_id must be non-empty")
        return tuple.__new__(cls, (kind, tensor_id, size))

    def __str__(self) -> str:
        return f"{self.kind.value} {self.tensor_id} {self.size}"


class TraceError(ValueError):
    """Raised when a malloc/free trace is malformed."""


def validate_trace(trace: Sequence[MemoryRequest]) -> None:
    """Check that a trace is well-formed.

    Rules: a tensor may not be malloc'd twice while live, may not be freed
    while not live, and the free size must match the malloc size.  Tensors
    still live at the end of the trace are allowed (e.g. skeletal tensors in a
    forward-only trace).
    """
    live: Dict[str, int] = {}
    for index, request in enumerate(trace):
        if request.kind is RequestKind.MALLOC:
            if request.tensor_id in live:
                raise TraceError(
                    f"request {index}: tensor {request.tensor_id!r} malloc'd while live"
                )
            live[request.tensor_id] = request.size
        else:
            if request.tensor_id not in live:
                raise TraceError(
                    f"request {index}: tensor {request.tensor_id!r} freed while not live"
                )
            if live[request.tensor_id] != request.size:
                raise TraceError(
                    f"request {index}: tensor {request.tensor_id!r} freed with size "
                    f"{request.size}, expected {live[request.tensor_id]}"
                )
            del live[request.tensor_id]


def peak_live_bytes(trace: Sequence[MemoryRequest]) -> int:
    """Lower bound on peak memory: maximum sum of simultaneously live tensors."""
    live = 0
    peak = 0
    for request in trace:
        if request.kind is RequestKind.MALLOC:
            live += request.size
            peak = max(peak, live)
        else:
            live -= request.size
    return peak


def tensor_lifespans(trace: Sequence[MemoryRequest]) -> Dict[str, Tuple[int, int, int]]:
    """Extract (malloc_step, free_step, size) per tensor from a trace.

    Tensors never freed get a free step of ``len(trace)`` (they live until the
    end of the trace).  A trace that mallocs an id again after its free raises
    :class:`TraceError`, as a second lifespan would overwrite the first.
    """
    validate_trace(trace)
    spans: Dict[str, Tuple[int, int, int]] = {}
    open_at: Dict[str, Tuple[int, int]] = {}
    for step, request in enumerate(trace):
        if request.kind is RequestKind.MALLOC:
            if request.tensor_id in spans:
                raise TraceError(f"request {step}: tensor {request.tensor_id!r} malloc'd again after its free")
            open_at[request.tensor_id] = (step, request.size)
        else:
            start, size = open_at.pop(request.tensor_id)
            spans[request.tensor_id] = (start, step, size)
    for tensor_id, (start, size) in open_at.items():
        spans[tensor_id] = (start, len(trace), size)
    return spans
