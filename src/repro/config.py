"""Global configuration: numeric precisions and simulator calibration constants.

The simulator replaces a physical A800 cluster, so a handful of calibration
constants map analytical FLOP/byte counts onto wall-clock time.  They are kept
in one place (rather than sprinkled through the cost model) so that every
experiment uses the same assumptions and so that ablation benchmarks can vary
them explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass


KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB
TiB = 1024 * GiB

# Sequence-length shorthand used throughout the paper: "256K" means 256 * 1024.
K_TOKENS = 1024


#: Bound of each per-process memo of the memory-planning path: the iteration
#: trace, the DSA problem (with its heuristic plan) and MEMO's prepared plan.
PLAN_MEMO_SIZE = 64


def require_count(name: str, value: object, low: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an ``int`` (not a bool) >= ``low``."""
    if type(value) is not int or value < low:
        raise ValueError(f"{name} must be an int >= {low} (got {value!r})")


def tokens(kilotokens: float) -> int:
    """Convert a sequence length expressed in "K" (as in the paper) to tokens."""
    return int(kilotokens * K_TOKENS)


@dataclass(frozen=True)
class PrecisionConfig:
    """Byte widths of the numeric formats used during training.

    Mixed-precision training (paper Section 5.1) keeps parameters and
    activations in 16-bit floats while the optimizer keeps FP32 master
    weights and Adam moments.
    """

    activation_bytes: int = 2
    parameter_bytes: int = 2
    gradient_bytes: int = 2
    master_parameter_bytes: int = 4
    optimizer_state_bytes_per_param: int = 8  # two FP32 Adam moments

    @property
    def model_state_bytes_per_param(self) -> int:
        """Bytes per parameter for parameters + gradients + optimizer states."""
        return (
            self.parameter_bytes
            + self.gradient_bytes
            + self.master_parameter_bytes
            + self.optimizer_state_bytes_per_param
        )


@dataclass(frozen=True)
class CalibrationConstants:
    """Constants mapping analytical costs to simulated wall-clock time.

    Attributes:
        matmul_efficiency: fraction of peak FLOPS achieved by large GEMMs
            (dense projections, FFN).
        attention_efficiency: fraction of peak FLOPS achieved by
            FlashAttention kernels.
        small_op_overhead_s: fixed per-layer overhead (layer norms, elementwise
            ops, kernel launches) for the forward pass of one layer.
        backward_compute_factor: backward FLOPs relative to forward FLOPs for
            one layer (the classic 2x).
        pcie_efficiency: achievable fraction of the nominal PCIe bandwidth for
            large contiguous D2H/H2D copies.
        nvlink_efficiency / ib_efficiency: achievable fraction of the nominal
            collective bandwidth.
        reorg_stall_s: wall-clock stall incurred by one PyTorch caching
            allocator reorganisation (a round of cudaFree + cudaMalloc);
            the paper reports these stalls dominate fragmented runs.
        reorg_bandwidth_bytes_per_s: effective rate at which reserved segments
            can be released and re-reserved during a reorganisation; the stall
            of one reorganisation is reserved_bytes / this rate.
        allocator_overhead_fraction: extra reserved-but-unusable GPU memory
            caused by fragmentation when the caching allocator is used without
            a static plan.
        optimizer_step_flops_per_param: FLOPs charged per parameter for the
            Adam update.
    """

    matmul_efficiency: float = 0.60
    attention_efficiency: float = 0.53
    small_op_overhead_s: float = 0.0015
    backward_compute_factor: float = 2.0
    pcie_efficiency: float = 0.85
    nvlink_efficiency: float = 0.75
    ib_efficiency: float = 0.70
    reorg_stall_s: float = 0.35
    reorg_bandwidth_bytes_per_s: float = 2.0e9
    allocator_overhead_fraction: float = 0.20
    optimizer_step_flops_per_param: float = 12.0


DEFAULT_PRECISION = PrecisionConfig()
DEFAULT_CALIBRATION = CalibrationConstants()
