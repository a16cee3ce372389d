"""Hybrid network backend: per-link detail only where contention lives.

The ``"detailed"`` backend pays per-message, per-port simulation on *every*
fabric dimension, which is why its feasible-size cap exists.  But on the
paper's topologies almost all FIFO contention concentrates on one dimension —
the one an all-reduce loads heaviest relative to its provisioned bandwidth
(the long ring of a torus, the inter-package dimension of a multi-pod
fabric).  The remaining dimensions run essentially uncontended, where the
symmetric pipe model is exact.

:class:`HybridBackend` exploits that: it instantiates the full per-port
:class:`~repro.network.detailed.DetailedBackend` on the *most-contended*
dimension only and a :class:`~repro.network.symmetric.SymmetricFabric`
aggregated pipe on every other dimension.  The hot dimension keeps
message-level FIFO interleaving, store-and-forward hops and per-link
observability; the cold dimensions keep closed-form speed.  This lets
``"hybrid"`` run fabrics far past the detailed backend's NPU cap while
staying within a few percent of the fully detailed model on the small
systems where both are feasible (``experiments/model_agreement.py``
bounds the disagreement).

Hot-dimension selection
-----------------------
:func:`most_contended_dimension` plans a representative all-reduce with the
registry planner, takes each dimension's injected-bytes fraction
(:meth:`~repro.collectives.base.CollectivePlan.per_dimension_injected_fraction`)
and divides by the dimension's provisioned bandwidth — bytes per unit
bandwidth is the serialization pressure that creates queuing.  The argmax
wins; ties keep the earliest dimension in the fabric's active order, which
makes the choice deterministic.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.config.system import NetworkConfig
from repro.errors import TopologyError
from repro.network.backend import NetworkBackend, mean_utilization, register_backend
from repro.network.detailed import DetailedBackend
from repro.network.symmetric import SymmetricFabric
from repro.network.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.resources import Reservation
from repro.sim.trace import UtilizationTrace


def most_contended_dimension(topology: Topology, network: NetworkConfig) -> str:
    """The dimension an all-reduce loads heaviest relative to its bandwidth.

    Contention pressure of dimension ``d`` is ``injected_fraction[d] /
    bandwidth[d]``: the serialization time per payload byte that ``d`` must
    absorb, which is what builds FIFO queues.  Ties keep the earliest
    dimension in the fabric's active order (deterministic).
    """
    # Imported here, not at module scope: the collectives package imports
    # repro.network for topologies, so a top-level import would be circular.
    from repro.collectives.base import CollectiveOp
    from repro.collectives.planner import plan_collective

    plan = plan_collective(CollectiveOp.ALL_REDUCE, topology, network=network)
    fractions = plan.per_dimension_injected_fraction()
    active = topology.active_dimensions()
    if not active:
        raise TopologyError(
            f"topology {topology.name!r} has no active dimensions to model"
        )
    best = active[0]
    best_score = -1.0
    for dim in active:
        score = fractions.get(dim, 0.0) / network.dimension_bandwidth_gbps(dim)
        if score > best_score:
            best, best_score = dim, score
    return best


@register_backend("hybrid")
class HybridBackend(NetworkBackend):
    """Detailed model on the most-contended dimension, pipes elsewhere.

    Transfers on :attr:`hot_dimension` run through the event-driven
    per-message :class:`~repro.network.detailed.DetailedBackend` (full FIFO
    interleaving and coalescing); transfers on every other dimension are
    closed-form reservations on a
    :class:`~repro.network.symmetric.SymmetricFabric` pipe.  The
    observability surface is the union of both parts, weighted exactly as
    the detailed backend weights its ports, so Fig. 10-style numbers remain
    comparable across all three backends.
    """

    event_driven = True

    def __init__(self, topology: Topology, network: NetworkConfig) -> None:
        self.topology = topology
        self.network = network
        active = topology.active_dimensions()
        #: The single dimension simulated at per-link message granularity.
        self.hot_dimension: str = most_contended_dimension(topology, network)
        cold = [d for d in active if d != self.hot_dimension]
        self._detailed = DetailedBackend(
            topology, network, dimensions=(self.hot_dimension,)
        )
        #: Aggregated pipes for the cold dimensions (may be empty on a
        #: single-dimension fabric, where hybrid degenerates to detailed).
        self._pipes = SymmetricFabric(topology, network, dimensions=tuple(cold))
        self._order = list(active)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _is_hot(self, dimension: str) -> bool:
        """Whether ``dimension`` routes to the detailed sub-model."""
        return dimension == self.hot_dimension

    # ------------------------------------------------------------------
    # NetworkBackend protocol
    # ------------------------------------------------------------------
    def reserve(
        self,
        dimension: str,
        num_bytes: float,
        earliest_start: float,
        steps: int = 1,
    ) -> Reservation:
        """Serialise ``num_bytes`` on whichever sub-model owns ``dimension``."""
        if self._is_hot(dimension):
            return self._detailed.reserve(
                dimension, num_bytes, earliest_start, steps=steps
            )
        return self._pipes.reserve(dimension, num_bytes, earliest_start, steps=steps)

    def transfer(
        self,
        sim: Simulator,
        dimension: str,
        num_bytes: float,
        steps: int,
        on_complete: Callable[[float], None],
    ) -> None:
        """Event-mode transfer routed to the owning sub-model.

        Hot-dimension transfers walk the detailed backend's per-message /
        coalesced event path; cold-dimension transfers are closed-form pipe
        reservations whose completion is scheduled directly.
        """
        if self._is_hot(dimension):
            self._detailed.transfer(sim, dimension, num_bytes, steps, on_complete)
            return
        reservation = self._pipes.reserve(dimension, num_bytes, sim.now, steps=steps)
        sim.schedule_at(reservation.finish, on_complete, reservation.finish)

    def has_dimension(self, dimension: str) -> bool:
        """Whether either sub-model carries ``dimension``."""
        return self._detailed.has_dimension(dimension) or self._pipes.has_dimension(
            dimension
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def dimensions(self) -> List[str]:
        """All modelled dimensions, in the fabric's active order."""
        return list(self._order)

    @property
    def bytes_injected(self) -> float:
        """Total bytes the representative NPU injected into the fabric."""
        return self._detailed.bytes_injected + self._pipes.bytes_injected

    def per_dimension_bytes(self) -> Dict[str, float]:
        """Bytes injected per dimension, across both sub-models."""
        out = self._detailed.per_dimension_bytes()
        for dim in self._pipes.dimensions:
            out[dim] = self._pipes.pipe(dim).bytes_moved
        return {dim: out.get(dim, 0.0) for dim in self._order}

    def utilization(self, horizon_ns: float) -> float:
        """Mean per-dimension utilization over ``horizon_ns`` (Fig. 10).

        Each dimension contributes one value — the detailed part's port
        utilization for the hot dimension, the pipe utilization for cold
        ones — matching the weighting of the other two backends.
        """
        if horizon_ns <= 0 or not self._order:
            return 0.0
        values = [self._detailed.utilization(horizon_ns)]
        values.extend(
            self._pipes.pipe(dim).utilization(horizon_ns)
            for dim in self._pipes.dimensions
        )
        return mean_utilization(values)

    def utilization_series(self, horizon_ns: float, window_ns: float) -> List[tuple]:
        """Windowed utilization series over both sub-models' resources."""
        trace = UtilizationTrace(window_ns)
        tracers = self._detailed.tracers() + self._pipes.tracers()
        return trace.utilization_series(tracers, horizon_ns)

    def last_activity(self) -> float:
        """Latest simulated time either sub-model was still moving bytes."""
        return max(self._detailed.last_activity(), self._pipes.last_activity())

    def check_accounting(self, horizon_ns: float) -> None:
        """Assert no resource in either sub-model double-booked busy time."""
        self._detailed.check_accounting(horizon_ns)
        self._pipes.check_accounting(horizon_ns)

    def reset(self) -> None:
        """Clear both sub-models' reservations and accounting."""
        self._detailed.reset()
        self._pipes.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        cold = [d for d in self._order if d != self.hot_dimension]
        return (
            f"HybridBackend({self.topology.name}: detailed[{self.hot_dimension}], "
            f"pipes{cold})"
        )
