"""NPU compute engine.

Wraps the active compute backend with the resource view of a
:class:`~repro.config.system.SystemConfig`: the engine only sees the SMs and
HBM bandwidth that the configuration leaves to the training computation, so
the same workload automatically runs slower on BaselineCommOpt (74 SMs,
450 GB/s) than on ACE (80 SMs, 772 GB/s).  Which kernel-timing model prices
that allocation is ``system.compute_backend`` (``"roofline"``, the default —
or ``"execution-unit"`` / ``"auto"``), resolved through the registry in
:mod:`repro.compute.backend`.

The engine also records busy intervals so the training loop can report the
compute-utilization timeline of Fig. 10 and the total-compute bars of
Fig. 11a.
"""

from __future__ import annotations

from typing import List, Optional

from repro.compute.backend import make_compute_backend, resolve_compute_backend_name
from repro.compute.kernels import KernelCost
from repro.compute.roofline import RooflineModel
from repro.config.system import SystemConfig
from repro.errors import SimulationError
from repro.sim.trace import IntervalTracer


class NpuComputeEngine:
    """Sequential compute engine of the representative NPU."""

    def __init__(
        self,
        system: SystemConfig,
        kernel_launch_overhead_ns: float = 2_000.0,
        time_scale: float = 1.0,
        num_npus: Optional[int] = None,
    ) -> None:
        if time_scale <= 0:
            raise SimulationError("time_scale must be positive")
        self.system = system
        self.time_scale = time_scale
        # ``num_npus`` only steers ``compute_backend="auto"`` (validate-small
        # /sweep-large); explicit backend names ignore it.
        self.backend_name = resolve_compute_backend_name(
            system.compute_backend, num_npus=num_npus
        )
        self.backend = make_compute_backend(
            self.backend_name,
            tflops=system.compute_tflops,
            memory_bandwidth_gbps=system.compute_memory_bandwidth_gbps,
            kernel_launch_overhead_ns=kernel_launch_overhead_ns,
            units=system.compute,
        )
        # Kept as a plain attribute (not backend-derived) for the analysis
        # helpers that inspect ridge points regardless of the active backend.
        self.roofline = RooflineModel(
            tflops=system.compute_tflops,
            memory_bandwidth_gbps=system.compute_memory_bandwidth_gbps,
            kernel_launch_overhead_ns=kernel_launch_overhead_ns,
        )
        self.tracer = IntervalTracer("npu-compute")
        self._busy_until: float = 0.0
        self._total_compute_ns: float = 0.0
        self._task_log: List[tuple] = []

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
        self._task_log.append((cost.name, start, finish))
        return start, finish

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def busy_until(self) -> float:
        """Simulated time at which the engine finishes its last task."""
        return self._busy_until

    @property
    def total_compute_ns(self) -> float:
        """Sum of all executed task durations (the paper's "total computation")."""
        return self._total_compute_ns

    @property
    def task_log(self) -> List[tuple]:
        """Executed tasks as ``(name, start, finish)`` tuples."""
        return list(self._task_log)

    def utilization(self, horizon_ns: float) -> float:
        """Fraction of ``horizon_ns`` the engine spent executing tasks."""
        if horizon_ns <= 0:
            return 0.0
        return min(1.0, self._total_compute_ns / horizon_ns)

    def utilization_series(self, horizon_ns: float, window_ns: float) -> List[tuple]:
        """Windowed ``(time, utilization)`` samples for overlap timelines."""
        from repro.sim.trace import UtilizationTrace

        return UtilizationTrace(window_ns).utilization_series([self.tracer], horizon_ns)

    def reset(self) -> None:
        """Clear all recorded state so the engine can run another iteration."""
        self.tracer.reset()
        self._busy_until = 0.0
        self._total_compute_ns = 0.0
        self._task_log.clear()
