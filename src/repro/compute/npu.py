"""NPU compute engine.

Wraps the active compute backend with the resource view of a
:class:`~repro.config.system.SystemConfig`: the engine only sees the SMs and
HBM bandwidth that the configuration leaves to the training computation, so
the same workload automatically runs slower on BaselineCommOpt (74 SMs,
450 GB/s) than on ACE (80 SMs, 772 GB/s).  Which kernel-timing model prices
that allocation is ``system.compute_backend`` (``"roofline"``, the default,
or ``"execution-unit"``), built by :func:`make_compute_backend`.

The engine also records busy intervals so the training loop can report the
compute-utilization timeline of Fig. 10 and the total-compute bars of
Fig. 11a.
"""

from __future__ import annotations

from typing import List, Optional

from repro.compute.backend import ComputeBackend
from repro.compute.execution_unit import ExecutionUnitModel
from repro.compute.kernels import KERNEL_LAUNCH_OVERHEAD_NS, KernelCost
from repro.compute.roofline import RooflineModel
from repro.config.system import ComputeConfig, SystemConfig
from repro.errors import ConfigurationError, SimulationError
from repro.sim.trace import IntervalTracer


#: Every compute model, by the name ``SystemConfig.compute_backend`` and
#: ``SimJob.compute`` give it; :func:`make_compute_backend` builds each.
COMPUTE_BACKENDS = ("roofline", "execution-unit")


def make_compute_backend(
    name: str,
    tflops: float,
    memory_bandwidth_gbps: float,
    kernel_launch_overhead_ns: float = KERNEL_LAUNCH_OVERHEAD_NS,
    units: Optional[ComputeConfig] = None,
) -> ComputeBackend:
    """Build the backend ``name`` of :data:`COMPUTE_BACKENDS`.

    ``tflops`` and ``memory_bandwidth_gbps`` are the sustained rates of the
    resource allocation being modelled.  ``units`` carries the execution-unit
    parameters (``None`` uses the Table V defaults); the roofline has no unit
    structure and takes none.  Unknown names raise
    :class:`~repro.errors.ConfigurationError` naming the valid choices.
    """
    if name == "roofline":
        return RooflineModel(tflops, memory_bandwidth_gbps, kernel_launch_overhead_ns)
    if name == "execution-unit":
        return ExecutionUnitModel(
            tflops, memory_bandwidth_gbps, kernel_launch_overhead_ns, units
        )
    raise ConfigurationError(
        f"unknown compute backend {name!r}; expected one of {list(COMPUTE_BACKENDS)}"
    )


class NpuComputeEngine:
    """Sequential compute engine of the representative NPU."""

    def __init__(self, system: SystemConfig, time_scale: float = 1.0) -> None:
        if time_scale <= 0:
            raise SimulationError("time_scale must be positive")
        self.system = system
        self.time_scale = time_scale
        self.backend = make_compute_backend(
            system.compute_backend,
            tflops=system.compute_tflops,
            memory_bandwidth_gbps=system.compute_memory_bandwidth_gbps,
            units=system.compute,
        )
        self.tracer = IntervalTracer("npu-compute")
        self._busy_until: float = 0.0
        self._total_compute_ns: float = 0.0

    # ------------------------------------------------------------------
    # Timing queries (no state change)
    # ------------------------------------------------------------------
    def task_time_ns(self, cost: KernelCost) -> float:
        """Execution time of ``cost`` on this engine's resource allocation."""
        return self.backend.kernel_time_ns(cost) * self.time_scale

    # ------------------------------------------------------------------
    # Execution (reserves the engine)
    # ------------------------------------------------------------------
    def execute(self, cost: KernelCost, earliest_start: float) -> tuple:
        """Run ``cost`` as soon as possible after ``earliest_start``.

        Returns ``(start, finish)``.  The engine is strictly sequential; a
        task queued while another runs starts when the previous one finishes.
        """
        if earliest_start < 0:
            raise SimulationError("earliest_start must be non-negative")
        duration = self.task_time_ns(cost)
        start = max(earliest_start, self._busy_until)
        finish = start + duration
        self._busy_until = finish
        self._total_compute_ns += duration
        self.tracer.record(start, finish)
        return start, finish

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def total_compute_ns(self) -> float:
        """Sum of all executed task durations (the paper's "total computation")."""
        return self._total_compute_ns

    def utilization_series(self, horizon_ns: float, window_ns: float) -> List[tuple]:
        """Windowed ``(time, utilization)`` samples for overlap timelines."""
        from repro.sim.trace import UtilizationTrace

        return UtilizationTrace(window_ns).utilization_series([self.tracer], horizon_ns)
