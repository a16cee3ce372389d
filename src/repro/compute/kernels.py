"""Kernel cost models.

Each helper returns a :class:`KernelCost` describing the arithmetic and memory
traffic of one kernel invocation.  The numbers are architectural (derived from
tensor shapes), not measured; the roofline model turns them into time for a
particular NPU resource allocation.

Only the kernel families the paper's workloads need are modelled: GEMM
(fully-connected / attention projections), 2-D convolution (ResNet-50), LSTM
cells (GNMT), embedding-table lookup (DLRM), and element-wise ops.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.units import left_sum

#: Bytes per element for FP16 compute / communication (Section V).
FP16_BYTES = 2
FP32_BYTES = 4

#: Fixed cost of launching one kernel on the NPU, in ns: the default of
#: every compute model and device cost table.
KERNEL_LAUNCH_OVERHEAD_NS = 2_000.0


@dataclass(frozen=True)
class KernelCost:
    """Arithmetic and memory traffic of one kernel invocation."""

    name: str
    flops: float
    bytes_read: float
    bytes_written: float
    #: Fraction of peak FLOPs this kernel typically sustains (dense GEMMs run
    #: near peak; small or irregular kernels do not).
    compute_efficiency: float = 0.5

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes_read < 0 or self.bytes_written < 0:
            raise WorkloadError(f"kernel {self.name!r} has negative cost")
        if not 0 < self.compute_efficiency <= 1:
            raise WorkloadError(
                f"kernel {self.name!r} efficiency must be in (0, 1], "
                f"got {self.compute_efficiency}"
            )

    @property
    def bytes_total(self) -> float:
        """Total memory traffic (reads plus writes) in bytes."""
        return self.bytes_read + self.bytes_written

    def scaled(self, factor: float) -> "KernelCost":
        """A cost with flops and bytes scaled by ``factor`` (e.g. batch scaling)."""
        if factor < 0:
            raise WorkloadError("scale factor must be non-negative")
        return KernelCost(
            name=self.name,
            flops=self.flops * factor,
            bytes_read=self.bytes_read * factor,
            bytes_written=self.bytes_written * factor,
            compute_efficiency=self.compute_efficiency,
        )


def gemm_cost(
    m: int,
    n: int,
    k: int,
    batch: int = 1,
    dtype_bytes: int = FP16_BYTES,
    efficiency: float = 0.85,
    traffic_factor: float = 1.0,
    name: str = "gemm",
) -> KernelCost:
    """Cost of a (possibly batched) ``M x K @ K x N`` matrix multiplication.

    ``traffic_factor`` scales the tensor traffic to account for the extra
    memory movement training kernels perform beyond the raw operands
    (activation storage for the backward pass, bias/normalisation/activation
    epilogues, optimizer state updates).
    """
    if min(m, n, k, batch) <= 0:
        raise WorkloadError(f"GEMM dimensions must be positive, got {(m, n, k, batch)}")
    flops = 2.0 * m * n * k * batch
    bytes_read = float(batch) * (m * k + k * n) * dtype_bytes * traffic_factor
    bytes_written = float(batch) * m * n * dtype_bytes * traffic_factor
    return KernelCost(name, flops, bytes_read, bytes_written, efficiency)


def conv2d_cost(
    batch: int,
    in_channels: int,
    out_channels: int,
    out_h: int,
    out_w: int,
    kernel_size: int,
    dtype_bytes: int = FP16_BYTES,
    efficiency: float = 0.85,
    traffic_factor: float = 1.0,
    name: str = "conv2d",
) -> KernelCost:
    """Cost of a 2-D convolution producing a ``batch x C_out x H x W`` output.

    ``traffic_factor`` accounts for the additional traffic of training
    (activation storage, batch-norm statistics, ReLU, weight-update traffic).
    """
    if min(batch, in_channels, out_channels, out_h, out_w, kernel_size) <= 0:
        raise WorkloadError("conv2d dimensions must be positive")
    flops = 2.0 * batch * out_channels * out_h * out_w * in_channels * kernel_size * kernel_size
    weight_bytes = float(out_channels * in_channels * kernel_size * kernel_size) * dtype_bytes
    input_bytes = float(batch * in_channels * out_h * out_w) * dtype_bytes
    output_bytes = float(batch * out_channels * out_h * out_w) * dtype_bytes
    return KernelCost(
        name,
        flops,
        (weight_bytes + input_bytes) * traffic_factor,
        output_bytes * traffic_factor,
        efficiency,
    )


def lstm_cell_cost(
    batch: int,
    hidden: int,
    seq_len: int = 1,
    dtype_bytes: int = FP16_BYTES,
    efficiency: float = 0.8,
    traffic_factor: float = 1.0,
    name: str = "lstm",
) -> KernelCost:
    """Cost of running an LSTM layer over ``seq_len`` steps.

    Each step performs 8 ``hidden x hidden`` matrix-vector products per sample
    (4 gates, input and recurrent weights) plus element-wise gate math.
    """
    if min(batch, hidden, seq_len) <= 0:
        raise WorkloadError("LSTM dimensions must be positive")
    flops_per_step = 2.0 * batch * (8.0 * hidden * hidden) + 20.0 * batch * hidden
    flops = flops_per_step * seq_len
    # The 4 gate weight matrices (8 h^2 parameters) exceed on-chip storage, so
    # they are re-fetched from HBM on every time step; this is what makes LSTM
    # training markedly memory-bandwidth sensitive (paper Section VI-B).
    weight_bytes = 8.0 * hidden * hidden * dtype_bytes * seq_len
    state_bytes = 4.0 * batch * hidden * dtype_bytes * seq_len
    return KernelCost(
        name,
        flops,
        (weight_bytes + state_bytes) * traffic_factor,
        state_bytes * traffic_factor,
        efficiency,
    )


def embedding_lookup_cost(
    batch: int,
    lookups_per_sample: int,
    embedding_dim: int,
    num_tables: int = 1,
    dtype_bytes: int = FP32_BYTES,
    name: str = "emb_lookup",
) -> KernelCost:
    """Cost of gathering embedding rows (memory-bound; almost no FLOPs).

    DLRM gathers ``lookups_per_sample`` rows per table per sample and pools
    them, so the traffic is ``batch * lookups * dim * tables`` reads plus the
    pooled output writes.
    """
    if min(batch, lookups_per_sample, embedding_dim, num_tables) <= 0:
        raise WorkloadError("embedding lookup dimensions must be positive")
    rows = float(batch) * lookups_per_sample * num_tables
    bytes_read = rows * embedding_dim * dtype_bytes
    bytes_written = float(batch) * num_tables * embedding_dim * dtype_bytes
    flops = rows * embedding_dim  # pooling additions
    return KernelCost(name, flops, bytes_read, bytes_written, compute_efficiency=0.9)


def elementwise_cost(
    num_elements: int,
    flops_per_element: float = 1.0,
    dtype_bytes: int = FP16_BYTES,
    name: str = "elementwise",
) -> KernelCost:
    """Cost of an element-wise kernel (activation, bias, SGD update, ...)."""
    if num_elements <= 0:
        raise WorkloadError("element count must be positive")
    flops = float(num_elements) * flops_per_element
    bytes_read = float(num_elements) * dtype_bytes
    bytes_written = float(num_elements) * dtype_bytes
    return KernelCost(name, flops, bytes_read, bytes_written, compute_efficiency=0.9)


def combine(name: str, *costs: KernelCost) -> KernelCost:
    """Sum several kernel costs into one (efficiency is FLOP-weighted)."""
    if not costs:
        raise WorkloadError("combine() needs at least one kernel cost")
    flops = left_sum(c.flops for c in costs)
    reads = left_sum(c.bytes_read for c in costs)
    writes = left_sum(c.bytes_written for c in costs)
    if flops > 0:
        efficiency = left_sum(c.compute_efficiency * c.flops for c in costs) / flops
    else:
        efficiency = min(c.compute_efficiency for c in costs)
    return KernelCost(name, flops, reads, writes, min(1.0, max(1e-6, efficiency)))
