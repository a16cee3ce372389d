"""NPU compute model.

Kernel-timing models play the role of the paper's SCALE-sim-based compute
simulator: each kernel is characterised by its FLOP count and its memory
traffic, and the :class:`~repro.compute.backend.ComputeBackend`
implementations price it on the resources (SMs and HBM bandwidth) the system
configuration leaves to the training computation — the roofline model (the
default: larger of the compute-bound and memory-bound times) or the
execution-unit model (max over Scalar/Matrix/Vector/DMA units plus exposed
DMA fill/drain), selected by name via ``SystemConfig.compute_backend``.
"""

from repro.compute.backend import DEFAULT_COMPUTE_BACKEND, ComputeBackend
from repro.compute.kernels import (
    KernelCost,
    conv2d_cost,
    elementwise_cost,
    embedding_lookup_cost,
    gemm_cost,
    lstm_cell_cost,
)
from repro.compute.roofline import RooflineModel
from repro.compute.execution_unit import ExecutionUnitModel
from repro.compute.npu import COMPUTE_BACKENDS, NpuComputeEngine, make_compute_backend

__all__ = [
    "COMPUTE_BACKENDS",
    "DEFAULT_COMPUTE_BACKEND",
    "ComputeBackend",
    "ExecutionUnitModel",
    "KernelCost",
    "conv2d_cost",
    "elementwise_cost",
    "embedding_lookup_cost",
    "gemm_cost",
    "lstm_cell_cost",
    "make_compute_backend",
    "RooflineModel",
    "NpuComputeEngine",
]
