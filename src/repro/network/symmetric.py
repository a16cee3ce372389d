"""Fast symmetric-node fabric model.

All workloads and topologies evaluated in the paper are symmetric: every NPU
holds the same amount of data, runs the same collective schedule and sees the
same link bandwidths.  Under that symmetry the network behaviour of the whole
system can be captured from the viewpoint of one representative NPU — exactly
the viewpoint the paper itself uses in Fig. 8 ("from node X's view").

:class:`SymmetricFabric` holds, for the representative NPU, one
:class:`~repro.sim.resources.BandwidthResource` pipe per fabric dimension.
A pipe aggregates the per-NPU ring bandwidth of that dimension (Table V:
400 GB/s local, 50 GB/s vertical, 50 GB/s horizontal; switch and
fully-connected fabrics map onto the same link classes) and serialises
transfers FIFO.  Link latency is charged per
ring step.  Busy intervals are traced so network utilization timelines
(Fig. 10) and achieved bandwidth (Figs. 5, 6, 11) can be reported.

The fabric works for any :class:`~repro.network.topology.Topology`: pipes
are created for whatever :meth:`~repro.network.topology.Topology.active_dimensions`
reports, so ring, switch, fully-connected and torus fabrics all share this
model.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.config.system import NetworkConfig
from repro.errors import TopologyError
from repro.network.backend import NetworkBackend, mean_utilization
from repro.network.topology import Topology
from repro.sim.resources import BandwidthResource, Reservation
from repro.sim.trace import IntervalTracer, UtilizationTrace
from repro.units import left_sum


class SymmetricFabric(NetworkBackend):
    """Per-dimension pipes for the representative NPU of a symmetric fabric.

    This is the ``"symmetric"`` :class:`~repro.network.backend.NetworkBackend`:
    the fast analytical model the paper uses for every large sweep, validated
    against the ``"detailed"`` per-link backend on small systems
    (``experiments/model_agreement.py``).  It is the timeline backend: the
    collective executor takes each phase's pipe and latency tail from
    :meth:`booking` once per stage-table row and books the pipe inline, so
    a chunk-phase builds no :class:`~repro.sim.resources.Reservation`;
    :meth:`reserve` answers the same question for the hybrid backend's cold
    dimensions.
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
        self._pipes: Dict[str, BandwidthResource] = {
            dim: BandwidthResource(
                name=f"pipe[{dim}]",
                bandwidth_gbps=network.dimension_bandwidth_gbps(dim),
                latency_ns=network.dimension_latency_ns(dim),
                trace=IntervalTracer(f"dim-{dim}"),
            )
            for dim in selected
        }

    # ------------------------------------------------------------------
    # Pipes
    # ------------------------------------------------------------------
    @property
    def dimensions(self) -> List[str]:
        """Names of the active dimension pipes."""
        return list(self._pipes)

    def pipe(self, dimension: str) -> BandwidthResource:
        """The pipe carrying ``dimension`` traffic."""
        try:
            return self._pipes[dimension]
        except KeyError:
            raise TopologyError(
                f"dimension {dimension!r} is not active in fabric {self.topology.name}"
            ) from None

    def has_dimension(self, dimension: str) -> bool:
        """Whether ``dimension`` has an active pipe in this fabric."""
        return dimension in self._pipes

    def booking(self, dimension: str, steps: int) -> Tuple[BandwidthResource, float]:
        """``(pipe, tail)`` of a ``steps``-step transfer on ``dimension``.

        The transfer serialises through ``pipe``, whose FIFO charges
        serialization plus one link latency, and finishes ``tail`` later:
        the remaining ``steps - 1`` ring-step latencies are additive (the
        phase's data pipelines around the ring, so only latency — not
        bandwidth — is paid again per extra step).  The collective executor
        asks once per stage-table row and books ``pipe`` inline per chunk.
        """
        pipe = self.pipe(dimension)
        return pipe, (steps - 1) * pipe.latency_ns if steps > 1 else 0.0

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

        Books what :meth:`booking` describes: the hybrid backend's cold
        dimensions reserve through here, the collective executor does not.
        """
        pipe, tail = self.booking(dimension, steps)
        start, finish = pipe.reserve_times(num_bytes, earliest_start)
        return Reservation(start, finish + tail, num_bytes)

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    @property
    def bytes_injected(self) -> float:
        """Total bytes the representative NPU injected into the fabric."""
        return left_sum(p.bytes_moved for p in self._pipes.values())

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
        return [p.trace for p in self._pipes.values()]

    def utilization_series(self, horizon_ns: float, window_ns: float) -> List[tuple]:
        """Windowed link-utilization series across all dimensions (Fig. 10)."""
        trace = UtilizationTrace(window_ns)
        return trace.utilization_series(self.tracers(), horizon_ns)

    def last_activity(self) -> float:
        """Latest time at which any dimension pipe was still busy."""
        return max(
            (pipe.trace.last_end for pipe in self._pipes.values()), default=0.0
        )

    def check_accounting(self, horizon_ns: float) -> None:
        """Assert every pipe's busy time fits in ``horizon_ns``."""
        for pipe in self._pipes.values():
            pipe.check_accounting(horizon_ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        dims = ", ".join(
            f"{d}={p.bandwidth_gbps:.0f}GB/s" for d, p in self._pipes.items()
        )
        return f"SymmetricFabric({self.topology.name}: {dims})"
