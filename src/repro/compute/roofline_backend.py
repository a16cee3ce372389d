"""The roofline compute backend (the default).

A thin :class:`~repro.compute.backend.ComputeBackend` adapter over
:class:`~repro.compute.roofline.RooflineModel` — same arithmetic, same code
path — so selecting ``compute="roofline"`` (or leaving the knob unset) prices
every kernel byte-identically to the pre-backend simulator and keeps every
golden value unchanged.
"""

from __future__ import annotations

from repro.compute.backend import ComputeBackend, register_compute_backend
from repro.compute.kernels import KERNEL_LAUNCH_OVERHEAD_NS, KernelCost
from repro.compute.roofline import RooflineModel
from repro.units import SECOND, TERA


@register_compute_backend("roofline")
class RooflineComputeBackend(ComputeBackend):
    """Roofline kernel timing: max of the compute and memory bounds."""

    def __init__(
        self,
        tflops: float,
        memory_bandwidth_gbps: float,
        kernel_launch_overhead_ns: float = KERNEL_LAUNCH_OVERHEAD_NS,
        units: object = None,
    ) -> None:
        # ``units`` (the execution-unit parameter block) is accepted for
        # factory uniformity and ignored: the roofline has no unit structure.
        self.model = RooflineModel(
            tflops=tflops,
            memory_bandwidth_gbps=memory_bandwidth_gbps,
            kernel_launch_overhead_ns=kernel_launch_overhead_ns,
        )

    def kernel_time_ns(self, cost: KernelCost) -> float:
        """Roofline time (delegates to :meth:`RooflineModel.kernel_time_ns`)."""
        return self.model.kernel_time_ns(cost)

    def invert_duration_ns(self, duration_ns: float) -> float:
        """FLOPs whose compute-bound time is ``duration_ns`` minus overhead."""
        compute_ns = max(0.0, duration_ns - self.model.kernel_launch_overhead_ns)
        return compute_ns * self.model.tflops * TERA / SECOND
