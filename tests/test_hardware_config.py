"""Tests for the hardware specifications and the global configuration."""

import pytest

from repro.config import (
    CalibrationConstants,
    GiB,
    PrecisionConfig,
    TiB,
    tokens,
)
from repro.hardware.cluster import ClusterSpec, NodeSpec, make_a800_cluster
from repro.hardware.gpu import A800, H100_SXM, get_gpu_spec
from repro.hardware.links import INFINIBAND_200G, NVLINK_A800, PCIE_GEN4_X16, LinkSpec
from repro.sim.executor import LayerTask, simulate_iteration


class TestConfig:
    def test_tokens_helper(self):
        assert tokens(256) == 256 * 1024
        assert tokens(1.5) == 1536

    def test_precision_model_state_bytes(self):
        precision = PrecisionConfig()
        # 2 (params) + 2 (grads) + 4 (master) + 8 (Adam moments) = 16 bytes/param.
        assert precision.model_state_bytes_per_param == 16

    def test_calibration_defaults_sane(self):
        calibration = CalibrationConstants()
        assert 0 < calibration.attention_efficiency <= 1
        assert 0 < calibration.matmul_efficiency <= 1
        assert calibration.backward_compute_factor == pytest.approx(2.0)


class TestGPUSpecs:
    def test_a800_matches_paper_setup(self):
        assert A800.peak_half_precision_flops == pytest.approx(312e12)
        assert A800.memory_gib == pytest.approx(80.0)

    def test_registry_lookup(self):
        assert get_gpu_spec("H100") is H100_SXM
        with pytest.raises(KeyError):
            get_gpu_spec("V100")

    def test_validation(self):
        with pytest.raises(ValueError):
            A800.__class__("bad", peak_half_precision_flops=0, memory_bytes=1,
                           memory_bandwidth_bytes_per_s=1)


class TestLinks:
    def test_paper_bandwidths(self):
        assert PCIE_GEN4_X16.bandwidth_bytes_per_s == 32 * GiB
        assert NVLINK_A800.bandwidth_bytes_per_s == 400 * GiB
        assert INFINIBAND_200G.bandwidth_bytes_per_s == 200 * GiB

    def test_transfer_time_includes_latency(self):
        link = LinkSpec("test", bandwidth_bytes_per_s=1e9, latency_s=1e-3)

        def offload_time(num_bytes):
            tasks = [LayerTask(1.0, 1.0, offload_bytes=num_bytes, prefetch_bytes=num_bytes)]
            return simulate_iteration(
                tasks, link.bandwidth_bytes_per_s, d2h_latency_s=link.latency_s,
            ).d2h_busy_s

        assert offload_time(0) == 0.0
        assert offload_time(1e9) == pytest.approx(1.001)
        assert offload_time(2e9) == pytest.approx(2.001)

    def test_transfer_time_validation(self):
        with pytest.raises(ValueError, match="bandwidth"):
            LinkSpec("test", bandwidth_bytes_per_s=0)
        with pytest.raises(ValueError, match="latency"):
            LinkSpec("test", bandwidth_bytes_per_s=1e9, latency_s=-1e-6)


class TestNodeAndCluster:
    def test_default_node_matches_paper(self):
        node = NodeSpec()
        assert node.gpus_per_node == 8
        assert node.cpu_memory_bytes == 2 * TiB

    def test_per_gpu_host_budget_shared(self):
        node = NodeSpec()
        assert node.cpu_memory_per_gpu_bytes == pytest.approx(
            2 * TiB * node.cpu_memory_usable_fraction / 8
        )

    def test_cluster_sizes(self):
        assert make_a800_cluster(8).num_nodes == 1
        assert make_a800_cluster(64).num_nodes == 8
        assert make_a800_cluster(64).num_gpus == 64

    def test_partial_node_keeps_per_gpu_budget(self):
        small = make_a800_cluster(4)
        full = make_a800_cluster(8)
        assert small.num_gpus == 4
        assert small.node.cpu_memory_per_gpu_bytes == pytest.approx(
            full.node.cpu_memory_per_gpu_bytes
        )

    def test_invalid_cluster_sizes(self):
        with pytest.raises(ValueError):
            make_a800_cluster(0)
        with pytest.raises(ValueError):
            make_a800_cluster(12)

    def test_intra_node_group(self):
        cluster = make_a800_cluster(16)
        assert cluster.intra_node_group(8)
        assert not cluster.intra_node_group(16)

    def test_cluster_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_nodes=0)
        with pytest.raises(ValueError):
            NodeSpec(cpu_memory_usable_fraction=0.0)
