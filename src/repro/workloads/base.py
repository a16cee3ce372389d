"""Workload and layer datatypes.

A :class:`Workload` is a sequence of :class:`Layer` objects plus (optionally)
an :class:`EmbeddingStage` for DLRM-style hybrid parallelism.  The training
loop consumes these directly; the communication payloads are already expressed
in bytes (FP16 gradients / activations, Section V).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.collectives.base import CollectiveOp
from repro.compute.kernels import FP16_BYTES, KernelCost
from repro.errors import WorkloadError

#: Parallelisation strategies the training loop understands.  ``data``,
#: ``model`` and ``hybrid`` are the paper's original mixes; ``zero`` is
#: ZeRO/FSDP-style sharded data parallelism (reduce-scatter + all-gather
#: instead of all-reduce) and ``pipeline`` is a 1F1B pipeline schedule.
#: The ``pipeline`` strategy additionally accepts a parameterised spec of the
#: form ``"pipeline:<stages>x<microbatches>"`` at the configuration layer
#: (see :func:`repro.training.parallelism.parse_parallelism`).
PARALLELISM_STRATEGIES: Tuple[str, ...] = ("data", "model", "hybrid", "zero", "pipeline")


@dataclass(frozen=True)
class Layer:
    """One trainable layer of a DNN.

    Attributes
    ----------
    forward / input_grad / weight_grad:
        Kernel costs of the three per-layer computations in a training
        iteration.  Layers without trainable parameters (pooling, activation)
        may use zero-cost kernels for ``weight_grad``.
    params_bytes:
        Size of this layer's weight gradients in bytes.  Under data
        parallelism an all-reduce of this size is issued when the layer's
        weight-gradient computation finishes and must complete before the
        layer's forward pass of the next iteration.
    forward_allreduce_bytes / backward_allreduce_bytes:
        Blocking activation exchanges required by tensor/model parallelism
        (Megatron-LM style); issued and waited for right after the layer's
        forward / backward compute.
    comm_op / forward_comm_op / backward_comm_op:
        Collective types of the weight-gradient exchange and the blocking
        forward/backward activation exchanges.  All default to all-reduce
        (the paper's workloads); trace-driven workloads override them, e.g.
        an MoE block's all-to-all token exchange.
    """

    name: str
    forward: KernelCost
    input_grad: KernelCost
    weight_grad: KernelCost
    params_bytes: int = 0
    forward_allreduce_bytes: int = 0
    backward_allreduce_bytes: int = 0
    comm_op: CollectiveOp = CollectiveOp.ALL_REDUCE
    forward_comm_op: CollectiveOp = CollectiveOp.ALL_REDUCE
    backward_comm_op: CollectiveOp = CollectiveOp.ALL_REDUCE

    def __post_init__(self) -> None:
        if self.params_bytes < 0:
            raise WorkloadError(f"layer {self.name!r} has negative params_bytes")
        if self.forward_allreduce_bytes < 0 or self.backward_allreduce_bytes < 0:
            raise WorkloadError(f"layer {self.name!r} has negative activation comm bytes")

    @property
    def total_flops(self) -> float:
        return self.forward.flops + self.input_grad.flops + self.weight_grad.flops


@dataclass(frozen=True)
class EmbeddingStage:
    """DLRM-style model-parallel embedding stage.

    The embedding tables are partitioned across NPUs (model parallel); the
    lookup results are exchanged with an all-to-all before the top MLP in the
    forward pass and the gradients are exchanged with an all-to-all after
    back-propagation (Section II / Section V).
    """

    lookup: KernelCost
    update: KernelCost
    alltoall_forward_bytes: int
    alltoall_backward_bytes: int
    #: Index of the first layer that needs the exchanged embeddings (the first
    #: top-MLP layer); the forward pass blocks on the all-to-all before it.
    alltoall_before_layer: int

    def __post_init__(self) -> None:
        if self.alltoall_forward_bytes <= 0 or self.alltoall_backward_bytes <= 0:
            raise WorkloadError("embedding all-to-all payloads must be positive")
        if self.alltoall_before_layer < 0:
            raise WorkloadError("alltoall_before_layer must be non-negative")


@dataclass(frozen=True)
class Workload:
    """A complete training workload for one NPU (weak scaling)."""

    name: str
    layers: Tuple[Layer, ...]
    batch_size_per_npu: int
    parallelism: str = "data"
    embedding: Optional[EmbeddingStage] = None
    description: str = ""
    dtype_bytes: int = FP16_BYTES
    #: Calibration factor applied to every compute-kernel duration.  The
    #: paper's compute times come from a SCALE-sim-based systolic-array model
    #: that is substantially faster than a generic GPU roofline for dense
    #: conv/LSTM layers; this factor aligns the simulated compute time (and
    #: therefore the compute:communication ratio that drives Figs. 10-12)
    #: with the per-iteration compute levels the paper reports.
    compute_time_scale: float = 1.0
    #: Bytes of activations crossing a pipeline-stage boundary for one full
    #: batch (pipeline parallelism only).  Zero means "not declared"; the
    #: training loop falls back to the mean per-layer parameter footprint as
    #: an architectural proxy for the boundary tensor.
    pipeline_activation_bytes: int = 0
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.layers:
            raise WorkloadError(f"workload {self.name!r} has no layers")
        if self.batch_size_per_npu <= 0:
            raise WorkloadError(f"workload {self.name!r} needs a positive batch size")
        if self.parallelism not in PARALLELISM_STRATEGIES:
            raise WorkloadError(
                f"parallelism must be one of {PARALLELISM_STRATEGIES}, "
                f"got {self.parallelism!r}"
            )
        if self.pipeline_activation_bytes < 0:
            raise WorkloadError("pipeline_activation_bytes cannot be negative")
        if self.embedding is not None and self.embedding.alltoall_before_layer >= len(self.layers):
            raise WorkloadError("embedding.alltoall_before_layer is out of range")
        if self.compute_time_scale <= 0:
            raise WorkloadError("compute_time_scale must be positive")

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def total_params_bytes(self) -> int:
        return sum(layer.params_bytes for layer in self.layers)
