"""Interconnect link models: PCIe (GPU<->CPU), NVLink (intra-node), InfiniBand."""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import GiB


@dataclass(frozen=True)
class LinkSpec:
    """A point-to-point or collective communication link.

    Attributes:
        name: human-readable link name.
        bandwidth_bytes_per_s: nominal unidirectional bandwidth.
        latency_s: per-transfer fixed latency.
    """

    name: str
    bandwidth_bytes_per_s: float
    latency_s: float = 5e-6

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError("latency must be non-negative")


# GPU <-> CPU bandwidth reported in the paper's setup: 32 GB/s.
PCIE_GEN4_X16 = LinkSpec("PCIe-Gen4-x16", bandwidth_bytes_per_s=32 * GiB, latency_s=10e-6)

# Intra-node NVLink: 400 GB/s aggregate per GPU as in the paper's A800 nodes.
NVLINK_A800 = LinkSpec("NVLink-A800", bandwidth_bytes_per_s=400 * GiB, latency_s=3e-6)

# Inter-node InfiniBand: 200 GB/s per node.
INFINIBAND_200G = LinkSpec("InfiniBand-200G", bandwidth_bytes_per_s=200 * GiB, latency_s=8e-6)
