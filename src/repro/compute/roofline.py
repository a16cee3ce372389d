"""Roofline execution-time model.

Time for a kernel is the larger of its compute-bound time (FLOPs divided by
the sustained FLOP rate of the SMs available to the training computation) and
its memory-bound time (bytes moved divided by the HBM bandwidth left to the
training computation).  This is the standard first-order GPU kernel model and
captures the effect the paper studies: taking SMs or memory bandwidth away
from compute slows the computation down, and memory-bound kernels (embedding
lookups) are hit hardest by bandwidth loss.  It is the ``"roofline"``
compute backend, the default.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compute.backend import ComputeBackend
from repro.compute.kernels import KERNEL_LAUNCH_OVERHEAD_NS, KernelCost
from repro.errors import ConfigurationError
from repro.units import SECOND, TERA


@dataclass(frozen=True)
class RooflineModel(ComputeBackend):
    """Roofline with a fixed per-kernel launch overhead."""

    tflops: float
    memory_bandwidth_gbps: float
    kernel_launch_overhead_ns: float = KERNEL_LAUNCH_OVERHEAD_NS

    def __post_init__(self) -> None:
        if self.tflops <= 0:
            raise ConfigurationError(f"tflops must be positive, got {self.tflops}")
        if self.memory_bandwidth_gbps <= 0:
            raise ConfigurationError(
                f"memory bandwidth must be positive, got {self.memory_bandwidth_gbps}"
            )
        if self.kernel_launch_overhead_ns < 0:
            raise ConfigurationError("kernel launch overhead must be non-negative")

    def compute_time_ns(self, cost: KernelCost) -> float:
        """Compute-bound execution time."""
        sustained = self.tflops * cost.compute_efficiency * TERA
        return cost.flops / sustained * SECOND if cost.flops > 0 else 0.0

    def memory_time_ns(self, cost: KernelCost) -> float:
        """Memory-bound execution time (1 GB/s == 1 byte/ns)."""
        return cost.bytes_total / self.memory_bandwidth_gbps

    def kernel_time_ns(self, cost: KernelCost) -> float:
        """Roofline time: max of the two bounds plus launch overhead."""
        return (
            max(self.compute_time_ns(cost), self.memory_time_ns(cost))
            + self.kernel_launch_overhead_ns
        )

    def invert_duration_ns(self, duration_ns: float) -> float:
        """FLOPs whose compute-bound time is ``duration_ns`` minus overhead."""
        compute_ns = max(0.0, duration_ns - self.kernel_launch_overhead_ns)
        return compute_ns * self.tflops * TERA / SECOND
