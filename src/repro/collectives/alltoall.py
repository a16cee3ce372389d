"""Direct all-to-all over the 3D torus.

DLRM exchanges embedding activations with an all-to-all (Section II).  The
paper uses a *direct* algorithm — each NPU simultaneously sends a distinct
portion of its data to every other NPU — with XYZ routing delivering each
message over the torus (Section V).

The plan builder charges, per torus dimension, the link traffic a
representative NPU's links carry.  Because XYZ routing makes messages ride
multiple hops, intermediate NPUs forward traffic on behalf of others; in the
baseline system that forwarding passes through the intermediate NPU's memory
(Section V points out NVLink-class fabrics only support neighbor-to-neighbor
transfers), whereas ACE absorbs and forwards packets from its SRAM.
"""

from __future__ import annotations

from typing import Dict, List

from repro.collectives.base import CollectiveOp, CollectivePlan, PhaseSpec
from repro.errors import CollectiveError
from repro.network.routing import ring_distance
from repro.network.topology import (
    TORUS_DIMENSIONS,
    SingleHopTopology,
    Topology,
    Torus3D,
)

# ---------------------------------------------------------------------------
# Performance plan
# ---------------------------------------------------------------------------


def _per_dimension_hop_sums(topology: Torus3D) -> Dict[str, float]:
    """Sum over all destinations of hops taken in each dimension from node 0.

    Under XYZ routing the number of hops a message takes in a dimension only
    depends on the source/destination offsets in that dimension, so node 0 is
    representative of every node.
    """
    sums: Dict[str, float] = {dim: 0.0 for dim in TORUS_DIMENSIONS}
    src = 0
    for dst in topology.nodes():
        if dst == src:
            continue
        for dim in TORUS_DIMENSIONS:
            size = topology.dimension_size(dim)
            if size == 1:
                continue
            hops, _ = ring_distance(
                size, topology.ring_position(src, dim), topology.ring_position(dst, dim)
            )
            sums[dim] += hops
    return sums


def direct_all_to_all_plan(topology: Torus3D) -> CollectivePlan:
    """Build the per-NPU plan for a direct all-to-all of payload ``S`` bytes.

    Payload convention: each NPU holds ``S`` bytes and sends ``S / P`` bytes
    to each of the other ``P - 1`` NPUs.

    Per dimension ``d``, the total link traffic generated by the whole system
    is ``P * (S / P) * sum_dst hops_d(0, dst)``; divided evenly over the ``P``
    NPUs' links of that dimension it gives the per-NPU link load charged to
    the dimension pipe.  The portion of that load that did not originate at
    this NPU is forwarded traffic.
    """
    if not isinstance(topology, Torus3D):
        raise CollectiveError("direct_all_to_all_plan requires a Torus3D topology")
    num_nodes = topology.num_nodes
    if num_nodes < 2:
        return CollectivePlan(
            op=CollectiveOp.ALL_TO_ALL,
            topology_name=topology.name,
            num_nodes=num_nodes,
            phases=(),
        )
    hop_sums = _per_dimension_hop_sums(topology)
    phases: List[PhaseSpec] = []
    # Bytes this NPU originates per dimension: the first-hop dimension of a
    # route is charged the injection; with XYZ ordering that is the first
    # dimension in which the destination offset is non-zero.
    injected_by_dim: Dict[str, float] = {dim: 0.0 for dim in TORUS_DIMENSIONS}
    for dst in topology.nodes():
        if dst == 0:
            continue
        for dim in TORUS_DIMENSIONS:
            size = topology.dimension_size(dim)
            if size == 1:
                continue
            if topology.ring_position(dst, dim) != topology.ring_position(0, dim):
                injected_by_dim[dim] += 1.0 / num_nodes
                break
    for dim in topology.active_dimensions():
        # Per-NPU link load fraction of the payload on this dimension.
        link_load_fraction = hop_sums[dim] / num_nodes
        if link_load_fraction <= 0:
            continue
        originated_fraction = injected_by_dim[dim]
        forwarded_fraction = max(0.0, link_load_fraction - originated_fraction)
        ring_size = topology.dimension_size(dim)
        phases.append(
            PhaseSpec(
                dimension=dim,
                kind="all_to_all",
                ring_size=ring_size,
                steps=1,
                bytes_sent_fraction=link_load_fraction,
                reduced_bytes_fraction=0.0,
                resident_fraction_in=1.0,
                resident_fraction_out=1.0,
                forwarded_bytes_fraction=forwarded_fraction,
                parallel_group=0,
            )
        )
    return CollectivePlan(
        op=CollectiveOp.ALL_TO_ALL,
        topology_name=topology.name,
        num_nodes=num_nodes,
        phases=tuple(phases),
    )


def single_hop_all_to_all_plan(topology: Topology) -> CollectivePlan:
    """Direct all-to-all on a fabric where every pair is one hop apart.

    On a switch or fully-connected topology no traffic is forwarded through
    intermediate NPUs: each of the ``P`` NPUs injects ``(P-1)/P`` of its
    payload onto its single fabric dimension in one parallel step.  Fabrics
    with multi-hop routes (rings, tori) are rejected — their all-to-all must
    account for forwarded traffic, which this plan deliberately omits.
    """
    if not isinstance(topology, SingleHopTopology):
        raise CollectiveError(
            f"single-hop all-to-all needs a fabric where every pair is one "
            f"hop apart (switch or fully-connected), got "
            f"{type(topology).__name__} {topology.name!r}"
        )
    # SingleHopTopology enforces size >= 2, so no degenerate branch is needed.
    num_nodes = topology.num_nodes
    phase = PhaseSpec(
        dimension=topology.dimension,
        kind="all_to_all",
        ring_size=num_nodes,
        steps=1,
        bytes_sent_fraction=(num_nodes - 1) / num_nodes,
        reduced_bytes_fraction=0.0,
        resident_fraction_in=1.0,
        resident_fraction_out=1.0,
        forwarded_bytes_fraction=0.0,
        parallel_group=0,
    )
    return CollectivePlan(
        op=CollectiveOp.ALL_TO_ALL,
        topology_name=topology.name,
        num_nodes=num_nodes,
        phases=(phase,),
    )
