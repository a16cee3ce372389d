"""Fast symmetric-node fabric model.

All workloads and topologies evaluated in the paper are symmetric: every NPU
holds the same amount of data, runs the same collective schedule and sees the
same link bandwidths.  Under that symmetry the network behaviour of the whole
system can be captured from the viewpoint of one representative NPU — exactly
the viewpoint the paper itself uses in Fig. 8 ("from node X's view").

:class:`SymmetricFabric` exposes, for the representative NPU, one
:class:`DimensionPipe` per fabric dimension.  A pipe aggregates the per-NPU
ring bandwidth of that dimension (Table V: 400 GB/s local, 50 GB/s vertical,
50 GB/s horizontal; switch and fully-connected fabrics map onto the same
link classes) and serialises transfers FIFO.  Link latency is charged per
ring step.  Busy intervals are traced so network utilization timelines
(Fig. 10) and achieved bandwidth (Figs. 5, 6, 11) can be reported.

The fabric works for any :class:`~repro.network.topology.Topology`: pipes
are created for whatever :meth:`~repro.network.topology.Topology.active_dimensions`
reports, so ring, switch, fully-connected and torus fabrics all share this
model.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.config.system import NetworkConfig
from repro.errors import TopologyError
from repro.network.backend import NetworkBackend, mean_utilization, register_backend
from repro.network.topology import Topology
from repro.sim.resources import BandwidthResource, Reservation
from repro.sim.trace import IntervalTracer, UtilizationTrace


class DimensionPipe:
    """Aggregated per-NPU ring bandwidth of one torus dimension."""

    def __init__(self, dimension: str, bandwidth_gbps: float, latency_ns: float) -> None:
        self.dimension = dimension
        self.bandwidth_gbps = bandwidth_gbps
        self.latency_ns = latency_ns
        self.tracer = IntervalTracer(f"dim-{dimension}")
        self._pipe = BandwidthResource(
            name=f"pipe[{dimension}]",
            bandwidth_gbps=bandwidth_gbps,
            latency_ns=latency_ns,
            trace=self.tracer,
        )
        # The fabric books every chunk-phase here; binding the pipe's
        # ``(start, finish)`` entry point skips a delegation frame and the
        # Reservation that :meth:`reserve` builds.
        self.reserve_times = self._pipe.reserve_times

    def reserve(self, num_bytes: float, earliest_start: float) -> Reservation:
        """Serialise ``num_bytes`` through this dimension's ring links."""
        return self._pipe.reserve(num_bytes, earliest_start)

    @property
    def busy_time(self) -> float:
        """Total time (ns) the pipe has spent moving bytes."""
        return self._pipe.busy_time

    @property
    def bytes_moved(self) -> float:
        """Total bytes serialised through the pipe so far."""
        return self._pipe.bytes_moved

    def utilization(self, horizon_ns: float) -> float:
        """Fraction of ``horizon_ns`` the pipe was busy."""
        return self._pipe.utilization(horizon_ns)

    def achieved_bandwidth_gbps(self, horizon_ns: float) -> float:
        """Average bandwidth driven over ``horizon_ns`` (GB/s)."""
        return self._pipe.achieved_bandwidth_gbps(horizon_ns)

    def check_accounting(self, horizon_ns: float) -> None:
        """Assert busy time fits in ``horizon_ns`` (no double-booking)."""
        self._pipe.check_accounting(horizon_ns)

    def reset(self) -> None:
        """Clear all reservations and accounting."""
        self._pipe.reset()


@register_backend("symmetric")
class SymmetricFabric(NetworkBackend):
    """Per-dimension pipes for the representative NPU of a symmetric fabric.

    This is the ``"symmetric"`` :class:`~repro.network.backend.NetworkBackend`:
    the fast analytical model the paper uses for every large sweep, validated
    against the ``"detailed"`` per-link backend on small systems
    (``experiments/model_agreement.py``).
    """

    def __init__(
        self,
        topology: Topology,
        network: NetworkConfig,
        dimensions: Optional[Sequence[str]] = None,
    ) -> None:
        self.topology = topology
        self.network = network
        active = topology.active_dimensions()
        if dimensions is None:
            selected = active
        else:
            # The hybrid backend models a subset of the fabric's dimensions
            # with pipes (the rest get per-link detail); validate the filter.
            unknown = [d for d in dimensions if d not in active]
            if unknown:
                raise TopologyError(
                    f"dimension(s) {unknown} are not active in fabric "
                    f"{topology.name!r} (active: {list(active)})"
                )
            selected = [d for d in active if d in dimensions]
        self._pipes: Dict[str, DimensionPipe] = {}
        for dim in selected:
            self._pipes[dim] = DimensionPipe(
                dimension=dim,
                bandwidth_gbps=network.dimension_bandwidth_gbps(dim),
                latency_ns=network.dimension_latency_ns(dim),
            )

    # ------------------------------------------------------------------
    # Pipes
    # ------------------------------------------------------------------
    @property
    def dimensions(self) -> List[str]:
        """Names of the active dimension pipes."""
        return list(self._pipes)

    def pipe(self, dimension: str) -> DimensionPipe:
        """The :class:`DimensionPipe` carrying ``dimension`` traffic."""
        try:
            return self._pipes[dimension]
        except KeyError:
            raise TopologyError(
                f"dimension {dimension!r} is not active in fabric {self.topology.name}"
            ) from None

    def has_dimension(self, dimension: str) -> bool:
        """Whether ``dimension`` has an active pipe in this fabric."""
        return dimension in self._pipes

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
        """Serialise ``num_bytes`` through ``dimension``'s aggregated pipe.

        The pipe's FIFO charges serialization plus one link latency; the
        remaining ``steps - 1`` ring-step latencies are additive (the phase's
        data pipelines around the ring, so only latency — not bandwidth — is
        paid again per extra step).
        """
        pipe = self._pipes.get(dimension)
        if pipe is None:
            pipe = self.pipe(dimension)  # raises TopologyError
        start, finish = pipe.reserve_times(num_bytes, earliest_start)
        if steps > 1:
            finish += (steps - 1) * pipe.latency_ns
        return Reservation(start, finish, num_bytes, earliest_start)

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    @property
    def injection_bandwidth_gbps(self) -> float:
        """Total per-NPU injection bandwidth across active dimensions."""
        return sum(p.bandwidth_gbps for p in self._pipes.values())

    @property
    def bytes_injected(self) -> float:
        """Total bytes the representative NPU injected into the fabric."""
        return sum(p.bytes_moved for p in self._pipes.values())

    def achieved_bandwidth_gbps(self, horizon_ns: float) -> float:
        """Average network bandwidth the representative NPU drove over ``horizon_ns``."""
        if horizon_ns <= 0:
            return 0.0
        return self.bytes_injected / horizon_ns

    def utilization(self, horizon_ns: float) -> float:
        """Average fraction of links busy, irrespective of their bandwidth (Fig. 10)."""
        if not self._pipes or horizon_ns <= 0:
            return 0.0
        return mean_utilization(p.utilization(horizon_ns) for p in self._pipes.values())

    def tracers(self) -> List[IntervalTracer]:
        """Busy-interval tracers, one per dimension pipe.

        Exposed so composing backends (the hybrid model) can merge this
        fabric's activity into a combined utilization series.
        """
        return [p.tracer for p in self._pipes.values()]

    def utilization_series(self, horizon_ns: float, window_ns: float) -> List[tuple]:
        """Windowed link-utilization series across all dimensions (Fig. 10)."""
        trace = UtilizationTrace(window_ns)
        return trace.utilization_series(self.tracers(), horizon_ns)

    def last_activity(self) -> float:
        """Latest time at which any dimension pipe was still busy."""
        return max(
            (pipe.tracer.last_end for pipe in self._pipes.values()), default=0.0
        )

    def check_accounting(self, horizon_ns: float) -> None:
        """Assert every pipe's busy time fits in ``horizon_ns``."""
        for pipe in self._pipes.values():
            pipe.check_accounting(horizon_ns)

    def reset(self) -> None:
        """Clear every dimension pipe's reservations and accounting."""
        for pipe in self._pipes.values():
            pipe.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        dims = ", ".join(
            f"{d}={p.bandwidth_gbps:.0f}GB/s" for d, p in self._pipes.items()
        )
        return f"SymmetricFabric({self.topology.name}: {dims})"
