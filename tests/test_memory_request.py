"""Tests for memory request primitives and trace utilities."""

import pytest

from repro.memory.request import (
    MemoryRequest,
    RequestKind,
    TraceError,
    peak_live_bytes,
    tensor_lifespans,
    validate_trace,
)
from repro.planner.dsa import problem_from_trace


def malloc(name, size):
    return MemoryRequest(RequestKind.MALLOC, name, size)


def free(name, size):
    return MemoryRequest(RequestKind.FREE, name, size)


class TestMemoryRequest:
    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            malloc("a", 0)

    @pytest.mark.parametrize("size", [True, 1000.7, 1024.0])
    def test_rejects_fractional_and_boolean_size(self, size):
        with pytest.raises(ValueError, match=f"request size must be an int, got {size!r}"):
            MemoryRequest(RequestKind.MALLOC, "x", size)

    def test_kind_hashes_by_identity(self):
        # The DSA problem memo hashes every request's kind.
        assert hash(RequestKind.MALLOC) == object.__hash__(RequestKind.MALLOC)
        assert len({RequestKind.MALLOC, RequestKind.FREE, RequestKind("malloc")}) == 2

    def test_rejects_empty_tensor_id(self):
        with pytest.raises(ValueError):
            malloc("", 16)

    def test_string_format_matches_profiler(self):
        assert str(malloc("t1", 512)) == "malloc t1 512"
        assert str(free("t1", 512)) == "free t1 512"


class TestValidation:
    def test_valid_trace_passes(self):
        validate_trace([malloc("a", 10), malloc("b", 20), free("a", 10), free("b", 20)])

    def test_double_malloc_rejected(self):
        with pytest.raises(TraceError, match="malloc'd while live"):
            validate_trace([malloc("a", 10), malloc("a", 10)])

    def test_free_unallocated_rejected(self):
        with pytest.raises(TraceError, match="freed while not live"):
            validate_trace([free("a", 10)])

    def test_size_mismatch_rejected(self):
        with pytest.raises(TraceError, match="freed with size"):
            validate_trace([malloc("a", 10), free("a", 12)])

    def test_tensor_may_stay_live_at_end(self):
        validate_trace([malloc("a", 10)])


class TestPeakAndLifespans:
    def test_peak_live_bytes(self):
        trace = [malloc("a", 10), malloc("b", 30), free("a", 10), malloc("c", 5), free("b", 30), free("c", 5)]
        assert peak_live_bytes(trace) == 40

    def test_lifespans(self):
        trace = [malloc("a", 10), malloc("b", 20), free("a", 10)]
        spans = tensor_lifespans(trace)
        assert spans["a"] == (0, 2, 10)
        assert spans["b"] == (1, 3, 20)  # never freed -> lives to end of trace

    def test_reused_id_is_rejected_not_overwritten(self):
        # A valid trace (each malloc of "a" follows its free) whose live peak is
        # 100 B; keeping only the second lifespan of "a" would plan 80 B.
        trace = [
            malloc("a", 100), free("a", 100), malloc("b", 50),
            malloc("a", 30), free("a", 30), free("b", 50),
        ]
        validate_trace(trace)
        assert peak_live_bytes(trace) == 100
        with pytest.raises(TraceError, match=r"request 3: tensor 'a' malloc'd again after its free"):
            tensor_lifespans(trace)
        with pytest.raises(TraceError, match="request 3"):
            problem_from_trace(trace)
