"""DAG scheduler: lower an operator-graph trace onto the training loop.

:func:`lower_trace` turns a validated :class:`~repro.traces.format.Trace`
into the :class:`~repro.workloads.base.Workload` the existing
:class:`~repro.training.loop.TrainingLoop` consumes, so traces ride the same
planner, network backends, parallelism strategies, runner and cache paths as
the hand-coded workloads — nothing downstream knows the workload
came from a file.

The lowering is deterministic and depends only on the trace's *edge set*:

1. The nodes are ordered with Kahn's algorithm (sorted-id ready set, see
   :func:`~repro.traces.format.topological_order`), so shuffling the node
   list in the file never changes the result.
2. The ``forward``-phase compute nodes, in that topological order, define
   the layer sequence; each layer tag's ``input_grad`` / ``weight_grad``
   nodes and its per-layer comm nodes (``weight_grad`` collectives,
   blocking ``forward_activation`` / ``backward_activation`` exchanges)
   are attached to it.
3. The embedding-stage phases/roles — when present — assemble an
   :class:`~repro.workloads.base.EmbeddingStage`; the layer its forward
   all-to-all blocks is derived from the edge leaving the
   ``embedding_forward`` comm node.

Every structural flaw (a layer tag with no forward node, duplicate phases,
a comm node naming an unknown layer, a partial embedding stage) raises a
:class:`~repro.errors.TraceError` naming the trace and node.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.collectives.base import CollectiveOp
from repro.compute.kernels import KernelCost
from repro.errors import TraceError, WorkloadError
from repro.traces.cost import DeviceCostTable, find_cost_table
from repro.traces.format import Trace, TraceNode, topological_order
from repro.workloads.base import EmbeddingStage, Layer, Workload

#: Compute phases attached to a layer tag (vs. the embedding stage).
_LAYER_PHASES = ("forward", "input_grad", "weight_grad")


def _zero_cost(name: str) -> KernelCost:
    """A no-op kernel for absent input_grad/weight_grad phases.

    The training loop skips kernels with no flops and no bytes entirely
    (no launch overhead), matching hand-coded layers that use zero-cost
    kernels for parameter-free phases.
    """
    return KernelCost(name=name, flops=0.0, bytes_read=0.0, bytes_written=0.0,
                      compute_efficiency=1.0)


class _BoundCostTable:
    """A device cost table with the executing backend's inversion bound in."""

    def __init__(
        self, table: DeviceCostTable, compute_backend: Optional[str]
    ) -> None:
        self.table = table
        self.compute_backend = compute_backend

    def resolve(self, op, context: str) -> KernelCost:
        """Resolve one op descriptor under the bound compute backend."""
        return self.table.resolve(op, context, compute_backend=self.compute_backend)


def lower_trace(
    trace: Trace,
    cost_table: Optional[str] = None,
    compute_backend: Optional[str] = None,
) -> Workload:
    """Lower ``trace`` into a :class:`Workload` using the named cost table.

    ``cost_table`` names a :class:`~repro.traces.cost.DeviceCostTable`
    (default :data:`~repro.traces.cost.DEFAULT_COST_TABLE`); it prices
    ``measured`` op descriptors, while architectural (``tensor`` / ``gemm``)
    descriptors resolve identically on every table.  ``compute_backend``
    selects whose model ``measured`` durations invert so replay stays exact
    under the executing system's backend (``None`` = the legacy roofline
    inversion).
    """
    table = _BoundCostTable(find_cost_table(cost_table), compute_backend)
    context = f"trace {trace.name!r}"
    order = topological_order(trace)

    # -- partition the nodes -------------------------------------------
    layer_compute: Dict[str, Dict[str, TraceNode]] = {}
    layer_order: List[str] = []
    layer_comm: Dict[str, Dict[str, TraceNode]] = {}
    embedding_compute: Dict[str, TraceNode] = {}
    embedding_comm: Dict[str, TraceNode] = {}
    for node in order:
        if node.is_compute:
            if node.phase in _LAYER_PHASES:
                slots = layer_compute.setdefault(node.layer, {})
                if node.phase in slots:
                    raise TraceError(
                        f"{context} node {node.id!r}: layer {node.layer!r} already has "
                        f"a {node.phase!r} node ({slots[node.phase].id!r})"
                    )
                slots[node.phase] = node
                if node.phase == "forward":
                    layer_order.append(node.layer)
            else:  # embedding_lookup / embedding_update
                if node.phase in embedding_compute:
                    raise TraceError(
                        f"{context} node {node.id!r}: duplicate {node.phase!r} node"
                    )
                embedding_compute[node.phase] = node
        elif node.role in ("embedding_forward", "embedding_backward"):
            if node.role in embedding_comm:
                raise TraceError(f"{context} node {node.id!r}: duplicate {node.role!r} node")
            if node.collective != CollectiveOp.ALL_TO_ALL.value:
                raise TraceError(
                    f"{context} node {node.id!r}: embedding exchanges must be "
                    f"'all_to_all' collectives, got {node.collective!r}"
                )
            embedding_comm[node.role] = node
        else:
            slots = layer_comm.setdefault(node.layer, {})
            if node.role in slots:
                raise TraceError(
                    f"{context} node {node.id!r}: layer {node.layer!r} already has "
                    f"a {node.role!r} collective ({slots[node.role].id!r})"
                )
            slots[node.role] = node

    if not layer_order:
        raise TraceError(f"{context}: no 'forward' compute nodes — nothing to schedule")
    for layer_tag, slots in layer_compute.items():
        if "forward" not in slots:
            some = next(iter(slots.values()))
            raise TraceError(
                f"{context} node {some.id!r}: layer {layer_tag!r} has "
                f"{sorted(slots)} node(s) but no 'forward' node"
            )
    for layer_tag, slots in layer_comm.items():
        if layer_tag not in layer_compute:
            some = next(iter(slots.values()))
            raise TraceError(
                f"{context} node {some.id!r}: comm layer {layer_tag!r} has no "
                f"compute nodes; known layers: {sorted(layer_compute)}"
            )

    # -- assemble the layers -------------------------------------------
    try:
        layers = tuple(
            _build_layer(tag, layer_compute[tag], layer_comm.get(tag, {}), table, context)
            for tag in layer_order
        )
        embedding = _build_embedding(
            trace, embedding_compute, embedding_comm, layer_order, table, context
        )
        return Workload(
            name=trace.name,
            layers=layers,
            batch_size_per_npu=trace.batch_size_per_npu,
            parallelism=trace.parallelism,
            embedding=embedding,
            description=trace.description,
            dtype_bytes=trace.dtype_bytes,
            compute_time_scale=trace.compute_time_scale,
            pipeline_activation_bytes=trace.pipeline_activation_bytes,
        )
    except WorkloadError as exc:
        raise TraceError(f"{context}: {exc}") from exc


def _build_layer(
    tag: str,
    compute: Dict[str, TraceNode],
    comm: Dict[str, TraceNode],
    table: _BoundCostTable,
    context: str,
) -> Layer:
    """One trace layer: its three compute phases plus attached collectives."""
    forward = compute["forward"]
    costs: Dict[str, KernelCost] = {}
    for phase in _LAYER_PHASES:
        node = compute.get(phase)
        if node is None:
            costs[phase] = _zero_cost(f"{tag}.{phase}")
        else:
            costs[phase] = table.resolve(node.op, f"{context} node {node.id!r}")
    weight = comm.get("weight_grad")
    fwd_act = comm.get("forward_activation")
    bwd_act = comm.get("backward_activation")
    del forward  # layer order is the caller's concern; 'forward' is guaranteed
    return Layer(
        name=tag,
        forward=costs["forward"],
        input_grad=costs["input_grad"],
        weight_grad=costs["weight_grad"],
        params_bytes=weight.bytes if weight is not None else 0,
        forward_allreduce_bytes=fwd_act.bytes if fwd_act is not None else 0,
        backward_allreduce_bytes=bwd_act.bytes if bwd_act is not None else 0,
        comm_op=(
            CollectiveOp(weight.collective)
            if weight is not None
            else CollectiveOp.ALL_REDUCE
        ),
        forward_comm_op=(
            CollectiveOp(fwd_act.collective)
            if fwd_act is not None
            else CollectiveOp.ALL_REDUCE
        ),
        backward_comm_op=(
            CollectiveOp(bwd_act.collective)
            if bwd_act is not None
            else CollectiveOp.ALL_REDUCE
        ),
    )


def _build_embedding(
    trace: Trace,
    compute: Dict[str, TraceNode],
    comm: Dict[str, TraceNode],
    layer_order: List[str],
    table: _BoundCostTable,
    context: str,
) -> Optional[EmbeddingStage]:
    """Assemble the embedding stage, or ``None`` when the trace has none."""
    present: List[Tuple[str, TraceNode]] = sorted(
        list(compute.items()) + list(comm.items())
    )
    if not present:
        return None
    missing = sorted(
        set(("embedding_lookup", "embedding_update", "embedding_forward", "embedding_backward"))
        - {name for name, _ in present}
    )
    if missing:
        some = present[0][1]
        raise TraceError(
            f"{context} node {some.id!r}: partial embedding stage — "
            f"missing {missing}"
        )
    lookup = compute["embedding_lookup"]
    update = compute["embedding_update"]
    fwd = comm["embedding_forward"]
    bwd = comm["embedding_backward"]
    # The layer whose forward pass blocks on the exchanged embeddings is the
    # earliest forward node the embedding_forward collective feeds.
    layer_index = {tag: index for index, tag in enumerate(layer_order)}
    targets = []
    for src, dst in trace.edges:
        if src != fwd.id:
            continue
        target = trace.node(dst)
        if target.is_compute and target.phase == "forward":
            targets.append(layer_index[target.layer])
    if not targets:
        raise TraceError(
            f"{context} node {fwd.id!r}: the embedding_forward collective needs "
            f"an edge to the 'forward' node it blocks (the first top-MLP layer)"
        )
    return EmbeddingStage(
        lookup=table.resolve(lookup.op, f"{context} node {lookup.id!r}"),
        update=table.resolve(update.op, f"{context} node {update.id!r}"),
        alltoall_forward_bytes=fwd.bytes,
        alltoall_backward_bytes=bwd.bytes,
        alltoall_before_layer=min(targets),
    )
