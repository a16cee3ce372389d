"""Per-device cost tables: op descriptors -> kernel costs.

A :class:`DeviceCostTable` describes one accelerator (peak FP16 TFLOPS, HBM
bandwidth, kernel-launch overhead) and resolves the op descriptors of a trace
into :class:`~repro.compute.kernels.KernelCost` objects:

* ``tensor`` and ``gemm`` descriptors are architectural — FLOP and byte
  counts derived from tensor shapes — so their kernel cost is
  device-independent and the executing system's roofline
  (:class:`~repro.compute.roofline.RooflineModel`) prices them exactly like
  the hand-coded workloads.
* ``measured`` descriptors carry a wall-clock duration captured on the
  table's device.  The table *inverts the active compute backend's own
  model* — synthesising the FLOP count that reproduces the measured duration
  at peak efficiency — so replaying the trace on a system whose compute
  allocation matches the table reproduces the measurement exactly, and
  replaying it on a slower/faster system scales the duration by the
  compute-throughput ratio.  Which model is inverted follows the executing
  system's ``compute_backend`` (the ``compute_backend=`` argument of
  :meth:`DeviceCostTable.resolve`; ``None`` keeps the legacy roofline
  inversion byte-identically).  (Durations at or below the launch overhead
  floor at the overhead: the training loop skips zero-cost kernels
  entirely.)

The devices are a fixed table: the paper's NPU plus the NVIDIA data-center
parts that public per-GPU cost tables (byteprofile-analysis
``gpu_models_info`` style) commonly describe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.compute.kernels import KERNEL_LAUNCH_OVERHEAD_NS, KernelCost, gemm_cost
from repro.errors import TraceError

#: Cost table used when a trace job does not pin one.
DEFAULT_COST_TABLE = "paper-npu"


@dataclass(frozen=True)
class DeviceCostTable:
    """One accelerator's headline rates, for costing trace op descriptors."""

    name: str
    #: Peak dense FP16 throughput of the device.
    tflops: float
    #: Device memory (HBM) bandwidth in GB/s.
    memory_bandwidth_gbps: float
    kernel_launch_overhead_ns: float = KERNEL_LAUNCH_OVERHEAD_NS
    description: str = ""

    def __post_init__(self) -> None:
        if self.tflops <= 0 or self.memory_bandwidth_gbps <= 0:
            raise TraceError(
                f"cost table {self.name!r} needs positive tflops and memory bandwidth"
            )
        if self.kernel_launch_overhead_ns < 0:
            raise TraceError(
                f"cost table {self.name!r} launch overhead cannot be negative"
            )

    def backend(self, compute_backend: Optional[str] = None):
        """This device's compute backend (used to invert measured durations).

        ``compute_backend`` is a name of
        :data:`~repro.compute.npu.COMPUTE_BACKENDS` (``None`` = the roofline
        default).
        """
        from repro.compute.backend import DEFAULT_COMPUTE_BACKEND
        from repro.compute.npu import make_compute_backend

        return make_compute_backend(
            compute_backend or DEFAULT_COMPUTE_BACKEND,
            tflops=self.tflops,
            memory_bandwidth_gbps=self.memory_bandwidth_gbps,
            kernel_launch_overhead_ns=self.kernel_launch_overhead_ns,
        )

    def resolve(
        self,
        op: Mapping[str, object],
        context: str,
        compute_backend: Optional[str] = None,
    ) -> KernelCost:
        """Turn one validated op descriptor into a :class:`KernelCost`.

        ``context`` names the trace and node in any error message.
        ``compute_backend`` selects whose model ``measured`` durations invert
        (``None`` = the legacy roofline inversion, byte-identical to
        pre-1.6.0 behaviour); architectural descriptors resolve identically
        on every backend.
        """
        kind = op.get("kind")
        name = str(op.get("name", context))
        if kind == "tensor":
            return KernelCost(
                name=name,
                flops=float(op["flops"]),
                bytes_read=float(op["bytes_read"]),
                bytes_written=float(op["bytes_written"]),
                compute_efficiency=float(op["efficiency"]),
            )
        if kind == "gemm":
            return gemm_cost(
                m=int(op["m"]),
                n=int(op["n"]),
                k=int(op["k"]),
                batch=int(op["batch"]),
                dtype_bytes=int(op["dtype_bytes"]),
                efficiency=float(op["efficiency"]),
                traffic_factor=float(op["traffic_factor"]),
                name=name,
            )
        if kind == "measured":
            # Invert the active backend's own model: the FLOP count that
            # takes (duration - launch overhead) under that model at peak
            # efficiency.  bytes stay zero so the synthesised kernel is
            # compute-bound everywhere.
            flops = self.backend(compute_backend).invert_duration_ns(
                float(op["duration_ns"])
            )
            return KernelCost(
                name=name,
                flops=flops,
                bytes_read=0.0,
                bytes_written=0.0,
                compute_efficiency=1.0,
            )
        raise TraceError(f"{context}: cost table {self.name!r} cannot resolve op kind {kind!r}")


#: Every device a trace job can name.  ``paper-npu`` matches the paper's NPU
#: (Section V: 80 SMs, 120 FP16 TFLOPS, HBM2) and is the default; the NVIDIA
#: entries use the public datasheet dense-FP16 rates.
_COST_TABLES: Dict[str, DeviceCostTable] = {
    table.name: table
    for table in (
        DeviceCostTable(
            name="paper-npu",
            tflops=120.0,
            memory_bandwidth_gbps=900.0,
            description="the paper's NPU: 80 SMs, 120 FP16 TFLOPS, HBM2 (Section V)",
        ),
        DeviceCostTable(
            name="v100",
            tflops=125.0,
            memory_bandwidth_gbps=900.0,
            description="NVIDIA V100 SXM2: 125 FP16 TFLOPS, 900 GB/s HBM2",
        ),
        DeviceCostTable(
            name="a100",
            tflops=312.0,
            memory_bandwidth_gbps=1555.0,
            description="NVIDIA A100 SXM4 40GB: 312 FP16 TFLOPS, 1555 GB/s HBM2e",
        ),
        DeviceCostTable(
            name="h100",
            tflops=989.0,
            memory_bandwidth_gbps=3350.0,
            description="NVIDIA H100 SXM5: 989 FP16 TFLOPS, 3350 GB/s HBM3",
        ),
    )
}


def cost_table_names() -> List[str]:
    """Names accepted by :func:`find_cost_table` (and SimJob ``cost_table``)."""
    return sorted(_COST_TABLES)


def find_cost_table(name: Optional[str] = None) -> DeviceCostTable:
    """Look a device table up by name (``None`` = :data:`DEFAULT_COST_TABLE`)."""
    key = name or DEFAULT_COST_TABLE
    if key not in _COST_TABLES:
        raise TraceError(
            f"unknown cost table {key!r}; available: {cost_table_names()}"
        )
    return _COST_TABLES[key]
