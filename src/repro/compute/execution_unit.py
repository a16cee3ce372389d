"""The execution-unit compute backend.

Where the roofline collapses an NPU into two numbers (peak FLOPs, HBM
bandwidth), this backend models the micro-architectural structure underneath
— the Scalar/Matrix/Vector/DMA execution units of an NPU core complex with
its SRAM scratchpad and register file — so a kernel's time is the *max over
the units it occupies plus the DMA fill/drain that cannot hide*, rather than
a pure roofline point:

* **Matrix unit** — the systolic/tensor-core array executing the kernel's
  dense FLOPs at ``matrix_unit_fraction`` of peak, derated by
  ``unit_occupancy`` (achieved wave occupancy) and the kernel's own
  ``compute_efficiency``.
* **Vector unit** — the SIMD lanes executing the kernel's streaming FLOPs
  (element-wise epilogues, reductions, pooling): at most
  ``vector_flops_per_byte`` FLOPs per byte of DMA traffic, at
  ``vector_unit_fraction`` of peak.
* **Scalar unit** — address generation and control flow; replays
  ``scalar_flops_fraction`` of the kernel's FLOPs at
  ``scalar_unit_fraction`` of peak with no occupancy/efficiency derate
  (control work does not tensorise).
* **DMA engine** — streams the kernel's bytes at the full HBM bandwidth of
  the resource allocation, double-buffered through ``unit_sram_bytes`` SRAM
  tiles.  A ``dma_overlap`` fraction of the stream hides under unit
  execution; the rest — plus the first tile fill and last tile drain — is
  exposed serially.  Kernels whose traffic fits in the register file
  (``register_file_bytes``) bypass the SRAM staging entirely.

With the Table V defaults the model sits a few percent *above* the roofline
everywhere (occupancy and fill/drain are pure adds), which is exactly the
disagreement ``experiments/model_agreement.py`` quantifies and bounds.
All unit parameters live on :class:`~repro.config.system.ComputeConfig`, so
they thread through ``SimJob`` overrides like every other knob, and its field
bounds reject invalid values with a
:class:`~repro.errors.ConfigurationError` naming the field.
"""

from __future__ import annotations

from typing import Optional

from repro.compute.backend import ComputeBackend
from repro.compute.kernels import KERNEL_LAUNCH_OVERHEAD_NS, KernelCost
from repro.errors import ConfigurationError
from repro.units import SECOND, TERA


class ExecutionUnitModel(ComputeBackend):
    """Kernel timing as the max over Scalar/Matrix/Vector/DMA units."""

    def __init__(
        self,
        tflops: float,
        memory_bandwidth_gbps: float,
        kernel_launch_overhead_ns: float = KERNEL_LAUNCH_OVERHEAD_NS,
        units: Optional[object] = None,
    ) -> None:
        if tflops <= 0:
            raise ConfigurationError(f"tflops must be positive, got {tflops}")
        if memory_bandwidth_gbps <= 0:
            raise ConfigurationError(
                f"memory_bandwidth_gbps must be positive, got {memory_bandwidth_gbps}"
            )
        if kernel_launch_overhead_ns < 0:
            raise ConfigurationError(
                f"kernel_launch_overhead_ns must be non-negative, "
                f"got {kernel_launch_overhead_ns}"
            )
        if units is None:
            # Imported here, not at module scope: config.system must stay
            # importable without the compute package.
            from repro.config.system import ComputeConfig

            units = ComputeConfig()
        self.tflops = tflops
        self.memory_bandwidth_gbps = memory_bandwidth_gbps
        self.kernel_launch_overhead_ns = kernel_launch_overhead_ns
        self.matrix_unit_fraction = float(units.matrix_unit_fraction)
        self.vector_unit_fraction = float(units.vector_unit_fraction)
        self.scalar_unit_fraction = float(units.scalar_unit_fraction)
        self.scalar_flops_fraction = float(units.scalar_flops_fraction)
        self.vector_flops_per_byte = float(units.vector_flops_per_byte)
        self.unit_occupancy = float(units.unit_occupancy)
        self.dma_overlap = float(units.dma_overlap)
        self.unit_sram_bytes = int(units.unit_sram_bytes)
        self.register_file_bytes = int(units.register_file_bytes)

    # ------------------------------------------------------------------
    # Per-unit times
    # ------------------------------------------------------------------
    def _matrix_rate(self, efficiency: float) -> float:
        """Sustained matrix-unit FLOP rate (FLOPs per second)."""
        return (
            self.tflops
            * self.matrix_unit_fraction
            * self.unit_occupancy
            * efficiency
            * TERA
        )

    def unit_times_ns(self, cost: KernelCost) -> dict:
        """Per-unit busy times for one kernel (the observability surface)."""
        vector_flops = min(cost.flops, self.vector_flops_per_byte * cost.bytes_total)
        matrix_flops = cost.flops - vector_flops
        scalar_flops = self.scalar_flops_fraction * cost.flops
        vector_rate = (
            self.tflops
            * self.vector_unit_fraction
            * self.unit_occupancy
            * cost.compute_efficiency
            * TERA
        )
        scalar_rate = self.tflops * self.scalar_unit_fraction * TERA
        dma_ns = cost.bytes_total / self.memory_bandwidth_gbps
        if cost.bytes_total <= self.register_file_bytes:
            fill_drain_ns = 0.0
        else:
            fill_drain_ns = (
                min(cost.bytes_total, 2.0 * self.unit_sram_bytes)
                / self.memory_bandwidth_gbps
            )
        return {
            "matrix": matrix_flops / self._matrix_rate(cost.compute_efficiency) * SECOND
            if matrix_flops > 0
            else 0.0,
            "vector": vector_flops / vector_rate * SECOND if vector_flops > 0 else 0.0,
            "scalar": scalar_flops / scalar_rate * SECOND if scalar_flops > 0 else 0.0,
            "dma_hidden": self.dma_overlap * dma_ns,
            "dma_exposed": (1.0 - self.dma_overlap) * dma_ns + fill_drain_ns,
        }

    def kernel_time_ns(self, cost: KernelCost) -> float:
        """Max over the occupied units, plus exposed DMA and launch overhead."""
        times = self.unit_times_ns(cost)
        occupied = max(
            times["matrix"], times["vector"], times["scalar"], times["dma_hidden"]
        )
        return occupied + times["dma_exposed"] + self.kernel_launch_overhead_ns

    def invert_duration_ns(self, duration_ns: float) -> float:
        """FLOPs of a zero-byte kernel whose matrix-unit time is ``duration_ns``.

        A zero-byte kernel occupies only the matrix and scalar units (the
        vector unit's streaming FLOPs are bounded by DMA bytes, of which
        there are none), and the scalar replay is orders of magnitude below
        the matrix time at the default fractions — so the inversion reduces
        to the matrix-unit rate at unit efficiency, exactly mirroring the
        roofline backend's peak-rate inversion.
        """
        compute_ns = max(0.0, duration_ns - self.kernel_launch_overhead_ns)
        return compute_ns * self._matrix_rate(1.0) / SECOND
