"""Kernel cost models, roofline and the NPU compute engine."""

import pytest

from repro.compute.kernels import (
    KernelCost,
    combine,
    conv2d_cost,
    elementwise_cost,
    embedding_lookup_cost,
    gemm_cost,
    lstm_cell_cost,
)
from repro.compute.npu import NpuComputeEngine
from repro.compute.roofline import RooflineModel
from repro.config.presets import make_system
from repro.errors import ConfigurationError, WorkloadError


class TestKernelCosts:
    def test_gemm_flops(self):
        cost = gemm_cost(1000, 1000, 1000)
        assert cost.flops == pytest.approx(2e9)
        assert cost.bytes_read > 0 and cost.bytes_written > 0

    def test_conv_flops_match_resnet_conv1(self):
        # ResNet-50 conv1: 7x7, 3->64 channels, 112x112 output, ~0.24 GFLOP/sample.
        cost = conv2d_cost(1, 3, 64, 112, 112, 7)
        assert cost.flops == pytest.approx(0.236e9, rel=0.01)

    def test_embedding_lookup_is_memory_bound(self):
        cost = embedding_lookup_cost(10_000, 28, 64)
        assert cost.flops / cost.bytes_total < 1.0

    def test_gemm_is_compute_bound(self):
        cost = gemm_cost(4000, 4000, 4000)
        assert cost.flops / cost.bytes_total > 100.0

    def test_lstm_weight_refetch_per_step(self):
        short = lstm_cell_cost(128, 1024, seq_len=1)
        long = lstm_cell_cost(128, 1024, seq_len=10)
        assert long.bytes_read == pytest.approx(10 * short.bytes_read, rel=0.01)

    def test_traffic_factor_scales_bytes_not_flops(self):
        base = gemm_cost(100, 100, 100)
        scaled = gemm_cost(100, 100, 100, traffic_factor=3.0)
        assert scaled.flops == base.flops
        assert scaled.bytes_total == pytest.approx(3 * base.bytes_total)

    def test_scaled_helper(self):
        cost = elementwise_cost(1000).scaled(2.0)
        assert cost.flops == pytest.approx(2000.0)

    def test_combine_adds_costs(self):
        a = gemm_cost(100, 100, 100)
        b = elementwise_cost(100)
        both = combine("fused", a, b)
        assert both.flops == pytest.approx(a.flops + b.flops)
        assert both.bytes_total == pytest.approx(a.bytes_total + b.bytes_total)

    def test_invalid_inputs(self):
        with pytest.raises(WorkloadError):
            gemm_cost(0, 10, 10)
        with pytest.raises(WorkloadError):
            conv2d_cost(1, 0, 64, 10, 10, 3)
        with pytest.raises(WorkloadError):
            KernelCost("bad", -1.0, 0, 0)
        with pytest.raises(WorkloadError):
            KernelCost("bad", 1.0, 0, 0, compute_efficiency=0.0)
        with pytest.raises(WorkloadError):
            combine("empty")


class TestRoofline:
    def test_compute_bound_kernel(self):
        model = RooflineModel(tflops=100.0, memory_bandwidth_gbps=900.0, kernel_launch_overhead_ns=0.0)
        cost = gemm_cost(4000, 4000, 4000, efficiency=1.0)
        assert model.compute_time_ns(cost) > model.memory_time_ns(cost)
        assert model.kernel_time_ns(cost) == pytest.approx(cost.flops / 100e12 * 1e9)

    def test_memory_bound_kernel(self):
        model = RooflineModel(tflops=100.0, memory_bandwidth_gbps=100.0, kernel_launch_overhead_ns=0.0)
        cost = embedding_lookup_cost(10_000, 28, 64)
        assert model.memory_time_ns(cost) > model.compute_time_ns(cost)
        assert model.kernel_time_ns(cost) == pytest.approx(cost.bytes_total / 100.0)

    def test_less_bandwidth_slows_memory_bound_kernels(self):
        cost = embedding_lookup_cost(10_000, 28, 64)
        fast = RooflineModel(tflops=100.0, memory_bandwidth_gbps=772.0)
        slow = RooflineModel(tflops=100.0, memory_bandwidth_gbps=450.0)
        assert slow.kernel_time_ns(cost) > fast.kernel_time_ns(cost)

    def test_launch_overhead_added(self):
        model = RooflineModel(tflops=100.0, memory_bandwidth_gbps=900.0, kernel_launch_overhead_ns=5000.0)
        cost = elementwise_cost(10)
        assert model.kernel_time_ns(cost) >= 5000.0

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            RooflineModel(tflops=0.0, memory_bandwidth_gbps=900.0)


class TestNpuComputeEngine:
    def test_sequential_execution(self):
        engine = NpuComputeEngine(make_system("ace"))
        cost = gemm_cost(1000, 1000, 1000)
        s1, f1 = engine.execute(cost, 0.0)
        s2, f2 = engine.execute(cost, 0.0)
        assert s2 == pytest.approx(f1)
        assert engine.total_compute_ns == pytest.approx((f1 - s1) + (f2 - s2))

    def test_comm_opt_compute_is_slower_than_ace(self):
        cost = conv2d_cost(32, 256, 256, 14, 14, 3)
        ace_time = NpuComputeEngine(make_system("ace")).task_time_ns(cost)
        comm_opt_time = NpuComputeEngine(make_system("baseline_comm_opt")).task_time_ns(cost)
        assert comm_opt_time >= ace_time

    def test_time_scale(self):
        cost = gemm_cost(1000, 1000, 1000)
        base = NpuComputeEngine(make_system("ace")).task_time_ns(cost)
        scaled = NpuComputeEngine(make_system("ace"), time_scale=0.5).task_time_ns(cost)
        assert scaled == pytest.approx(0.5 * base)

    def test_utilization_and_trace(self):
        engine = NpuComputeEngine(make_system("ideal"))
        start, finish = engine.execute(gemm_cost(500, 500, 500), 0.0)
        assert engine.total_compute_ns == finish - start
        starts, ends = engine.tracer.merged_arrays()
        assert (starts.tolist(), ends.tolist()) == ([start], [finish])
