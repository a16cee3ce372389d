"""Ring-based collective algorithms.

Two layers live here:

* **Phase builders** (``ring_reduce_scatter_phase`` etc.) that produce the
  :class:`~repro.collectives.base.PhaseSpec` byte/step accounting the
  performance model consumes.

* **Plan builders** (``flat_ring_plan``) that wrap one phase into a complete
  :class:`~repro.collectives.base.CollectivePlan` for a logical ring spanning
  an entire topology — the form the planner consumes when the flat
  ring algorithm is chosen for a fabric.
"""

from __future__ import annotations

from repro.collectives.base import CollectiveOp, CollectivePlan, PhaseSpec
from repro.errors import CollectiveError

# ---------------------------------------------------------------------------
# Phase builders (performance accounting)
# ---------------------------------------------------------------------------


def _validate_ring(ring_size: int, resident_fraction: float) -> None:
    if ring_size < 1:
        raise CollectiveError(f"ring size must be >= 1, got {ring_size}")
    if resident_fraction < 0:
        raise CollectiveError("resident fraction must be non-negative")


def ring_reduce_scatter_phase(
    dimension: str,
    ring_size: int,
    resident_fraction: float,
    parallel_group: int = 0,
) -> PhaseSpec:
    """Reduce-scatter over a ring of ``ring_size`` nodes.

    Entering with ``r`` of the payload resident, each of the ``n-1`` steps
    sends ``r/n`` and reduces the ``r/n`` received, leaving ``r/n`` resident.
    """
    _validate_ring(ring_size, resident_fraction)
    n = ring_size
    sent = resident_fraction * (n - 1) / n if n > 1 else 0.0
    return PhaseSpec(
        dimension=dimension,
        kind="reduce_scatter",
        ring_size=n,
        steps=max(0, n - 1),
        bytes_sent_fraction=sent,
        reduced_bytes_fraction=sent,
        resident_fraction_in=resident_fraction,
        resident_fraction_out=resident_fraction / n if n > 0 else resident_fraction,
        parallel_group=parallel_group,
    )


def ring_all_gather_phase(
    dimension: str,
    ring_size: int,
    resident_fraction: float,
    parallel_group: int = 0,
) -> PhaseSpec:
    """All-gather over a ring: no reductions, resident data grows by ``n``x."""
    _validate_ring(ring_size, resident_fraction)
    n = ring_size
    sent = resident_fraction * (n - 1) if n > 1 else 0.0
    return PhaseSpec(
        dimension=dimension,
        kind="all_gather",
        ring_size=n,
        steps=max(0, n - 1),
        bytes_sent_fraction=sent,
        reduced_bytes_fraction=0.0,
        resident_fraction_in=resident_fraction,
        resident_fraction_out=resident_fraction * n,
        parallel_group=parallel_group,
    )


def ring_all_reduce_phase(
    dimension: str,
    ring_size: int,
    resident_fraction: float,
    parallel_group: int = 0,
) -> PhaseSpec:
    """All-reduce over a ring (reduce-scatter + all-gather fused in one phase).

    Sends ``2 r (n-1)/n`` per payload byte; half of that requires reductions.
    The resident fraction is unchanged at the end.
    """
    _validate_ring(ring_size, resident_fraction)
    n = ring_size
    per_part = resident_fraction * (n - 1) / n if n > 1 else 0.0
    return PhaseSpec(
        dimension=dimension,
        kind="all_reduce",
        ring_size=n,
        steps=max(0, 2 * (n - 1)),
        bytes_sent_fraction=2 * per_part,
        reduced_bytes_fraction=per_part,
        resident_fraction_in=resident_fraction,
        resident_fraction_out=resident_fraction,
        parallel_group=parallel_group,
    )


# ---------------------------------------------------------------------------
# Plan builders (complete plans for a logical ring over a whole topology)
# ---------------------------------------------------------------------------


def flat_ring_plan(
    op: CollectiveOp,
    topology_name: str,
    dimension: str,
    num_nodes: int,
) -> CollectivePlan:
    """Plan for ``op`` over one logical ring of all ``num_nodes`` NPUs.

    This is the classic single-ring (bandwidth-optimal, latency-linear)
    algorithm: ``2 (n-1)/n`` bytes injected per payload byte for all-reduce,
    ``(n-1)/n`` for reduce-scatter and all-gather.  ``dimension`` names the
    fabric pipe the traffic is charged to; on a multi-dimension torus the
    planner charges the slowest active dimension, since a Hamiltonian ring
    over the torus is throughput-bound by its slowest link class.
    """
    if num_nodes < 2:
        return CollectivePlan(
            op=op, topology_name=topology_name, num_nodes=max(1, num_nodes), phases=()
        )
    if op is CollectiveOp.ALL_REDUCE:
        phase = ring_all_reduce_phase(dimension, num_nodes, 1.0)
    elif op is CollectiveOp.REDUCE_SCATTER:
        phase = ring_reduce_scatter_phase(dimension, num_nodes, 1.0)
    elif op is CollectiveOp.ALL_GATHER:
        phase = ring_all_gather_phase(dimension, num_nodes, 1.0 / num_nodes)
    else:
        raise CollectiveError(f"flat ring plans do not support {op.value}")
    return CollectivePlan(
        op=op, topology_name=topology_name, num_nodes=num_nodes, phases=(phase,)
    )
