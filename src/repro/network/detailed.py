"""Detailed per-link network backend (message-level, contention-aware).

This is the ``"detailed"`` :class:`~repro.network.backend.NetworkBackend`:
the message-level, per-link fabric model in the training loop.  Where the
``"symmetric"`` backend aggregates each fabric dimension into one analytical
pipe, this backend models the representative NPU's *physical ports* — the
provisioned links of each active dimension (two 200 GB/s intra-package
links for ``local``/``switch``, two 25 GB/s inter-package links for
``vertical``/``horizontal``/``direct`` under Table V) — and moves every
transfer hop by hop:

* a phase of ``steps`` ring steps moves its bytes as Table III *messages*
  (8 KB): a message of step ``s + 1`` cannot start serialising
  until the corresponding message of step ``s`` has fully arrived at the
  next hop (serialization **plus** link latency) — hop-by-hop
  store-and-forward at message granularity, with consecutive messages of
  one step pipelining behind each other exactly as the paper's
  packet-level model does;
* each message splits equally across the dimension's parallel ports, and a
  port is a FIFO :class:`~repro.sim.resources.BandwidthResource` at one
  link's bandwidth — concurrent chunks and collectives contend per link,
  and a message from another collective can slot into the latency gaps
  between one chunk's steps (the fine-grained interleaving the symmetric
  pipe cannot express).  The equal split gives a dimension's ports
  byte-identical request sequences, so one resource per dimension is
  booked and stands for all of its ports;
* every port records busy intervals, so per-link utilization timelines and
  per-dimension byte counts are observable after a run;
* under contention a message's hops wait in the dimension's
  :class:`~repro.sim.engine.HopLane`, which books each one at the place in
  the simulator's ``(time, seq)`` order that its own event would have had,
  but books every hop that comes before the next heap event inline, without
  a heap entry of its own.

Symmetry argument
-----------------
All workloads and topologies evaluated here are symmetric: every NPU runs
the same schedule and sees the same link provisioning, so every NPU's ports
carry byte-for-byte the same timeline as the representative NPU's ports.
Simulating the representative NPU's links *is* the full per-link simulation,
at 1/N the cost; this is the same "from node X's view" reduction the paper
itself uses, applied per physical link instead of per dimension.

In the uncontended case the arithmetic matches the symmetric backend
exactly (total time = bytes / aggregate-dimension-bandwidth + steps x link
latency); under contention the two models diverge only through FIFO
ordering and gap utilization, which is precisely what
``experiments/model_agreement.py`` bounds (<= 5 % on <= 32-NPU systems,
the repo's analogue of the paper's model-validation claim).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config.system import DIMENSION_LINK_CLASS, NetworkConfig
from repro.errors import ResourceError, SimulationError, TopologyError
from repro.network.backend import NetworkBackend, mean_utilization
from repro.network.topology import Topology
from repro.sim.engine import HopLane, Simulator
from repro.sim.resources import BandwidthResource, Reservation
from repro.sim.trace import IntervalTracer, UtilizationTrace
from repro.units import left_sum


#: Store-and-forward message size (Table III: 8 KB messages).
DEFAULT_MESSAGE_BYTES = 8 * 1024

#: Upper bound on messages simulated per ring step.  Very large transfers
#: coarsen to ``step_bytes / MAX_MESSAGES_PER_STEP``-sized messages: the
#: hop-by-hop pipeline is fully expressed after a handful of messages per
#: step, so finer carving multiplies event count without changing timing
#: beyond the pipeline-fill term (< 1/MAX of a step's serialization).
MAX_MESSAGES_PER_STEP = 8

#: ``DetailedBackend._carve``'s result: ``(link, steps, num_messages,
#: bytes_per_port, sizes)``.
Carving = Tuple[BandwidthResource, int, int, float, List[float]]


class DetailedBackend(NetworkBackend):
    """Per-port, per-message network model for the representative NPU.

    The executor drives this backend through the event-mode
    :meth:`transfer` API (``event_driven = True``): every message hop is
    reserved at the simulated time its data actually arrives, so the port
    FIFOs see all traffic — across chunks, collectives and ring steps — in
    chronological order and stay work-conserving.  The timeline-mode
    :meth:`reserve` remains available for isolated transfers and tests; it
    books all hops of one transfer up front and therefore cannot let
    *later* traffic backfill the latency gaps between this transfer's own
    steps.
    """

    event_driven = True

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
            # The hybrid backend instantiates per-link detail on a subset of
            # the fabric's dimensions; validate the filter eagerly.
            unknown = [d for d in dimensions if d not in active]
            if unknown:
                raise TopologyError(
                    f"dimension(s) {unknown} are not active in fabric "
                    f"{topology.name!r} (active: {list(active)})"
                )
            selected = [d for d in active if d in dimensions]
        # Every message stripes equally across a dimension's ports (see
        # ``_carve``), so the ports of one dimension receive byte-identical
        # request sequences and carry bit-identical timelines.  One
        # resource per dimension is booked, at one port's bandwidth; the
        # port count scales its bytes and its weight in the utilization
        # series.
        self._links: Dict[str, BandwidthResource] = {}
        self._port_counts: Dict[str, int] = {}
        for dim in selected:
            if DIMENSION_LINK_CLASS.get(dim) == "intra_package":
                bandwidth = network.intra_package_link_bandwidth_gbps
                latency = network.intra_package_latency_ns
                ports = network.intra_package_links
            else:
                bandwidth = network.inter_package_link_bandwidth_gbps
                latency = network.inter_package_latency_ns
                ports = network.inter_package_links_per_dim
            self._links[dim] = BandwidthResource(
                name=f"link[{dim}]",
                bandwidth_gbps=bandwidth * network.link_efficiency,
                latency_ns=latency,
                trace=IntervalTracer(f"link-{dim}"),
            )
            self._port_counts[dim] = ports
        if not self._links:
            raise TopologyError(
                f"topology {topology.name!r} has no active dimensions to model"
            )
        #: Event-mode transfers per dimension that may still *issue* port
        #: requests (booked last reservation not yet made).  The coalescing
        #: guard (see :meth:`transfer`) requires this transfer to be the
        #: dimension's sole issuer; a predecessor whose requests are all
        #: booked only occupies the FIFO tails, which batch booking queues
        #: behind exactly like the per-message path would.
        self._issuing: Dict[str, int] = {dim: 0 for dim in self._links}
        #: :meth:`_carve` results by ``(dimension, num_bytes, steps)``.
        self._carvings: Dict[Tuple[str, float, int], Carving] = {}
        #: The simulator of the first :meth:`transfer`, and one
        #: :class:`~repro.sim.engine.HopLane` per dimension bound to it.
        self._sim: Optional[Simulator] = None
        self._lanes: Dict[str, HopLane] = {}

    # ------------------------------------------------------------------
    # NetworkBackend protocol
    # ------------------------------------------------------------------
    @property
    def dimensions(self) -> List[str]:
        """Names of the dimensions with modelled ports."""
        return list(self._links)

    def has_dimension(self, dimension: str) -> bool:
        """Whether ``dimension`` has physical ports in this fabric."""
        return dimension in self._links

    def _carve(self, dimension: str, num_bytes: float, steps: int) -> Carving:
        """Shared message-carving policy of :meth:`reserve` and :meth:`transfer`.

        Returns ``(link, steps, num_messages, bytes_per_port, sizes)``:
        the dimension's booked port, and ``sizes`` is one step's batch,
        ``[bytes_per_port] * num_messages``.  Both execution modes must
        compute identical timings for the same transfer, so the carving
        lives in exactly one place.  A job repeats a handful of
        ``(dimension, num_bytes, steps)`` triples -- Megatron at 64 NPUs
        carves 110,592 transfers on 3 of them, the 32-NPU throughput cell
        3,208 on 18 -- so each is carved once per backend and its size list
        is reused.
        """
        key = (dimension, num_bytes, steps)
        carving = self._carvings.get(key)
        if carving is None:
            if dimension not in self._links:
                raise TopologyError(
                    f"dimension {dimension!r} is not active in fabric {self.topology.name}"
                )
            steps = max(1, steps)
            step_bytes = num_bytes / steps
            num_messages = max(1, int(-(-step_bytes // DEFAULT_MESSAGE_BYTES)))
            num_messages = min(num_messages, MAX_MESSAGES_PER_STEP)
            bytes_per_port = step_bytes / (num_messages * self._port_counts[dimension])
            carving = self._carvings[key] = (
                self._links[dimension],
                steps,
                num_messages,
                bytes_per_port,
                [bytes_per_port] * num_messages,
            )
        return carving

    def reserve(
        self,
        dimension: str,
        num_bytes: float,
        earliest_start: float,
        steps: int = 1,
    ) -> Reservation:
        """Walk ``num_bytes`` around ``dimension``'s ring, message by message.

        Each ring step's bytes are carved into Table III messages.  Message
        ``m`` of step ``s + 1`` is the data received as message ``m`` of step
        ``s``, so it cannot inject before that message has fully arrived
        (serialization + link latency) — the hop-by-hop store-and-forward
        dependency of a real ring collective.  Within a step, consecutive
        messages pipeline behind each other on the port FIFOs, and messages
        of *other* chunks or collectives interleave into any latency gaps.
        """
        link, steps, num_messages, _, sizes = self._carve(dimension, num_bytes, steps)
        # ready[m]: when message m of the *current* step has arrived at this
        # hop (and may therefore be forwarded as part of the next step).
        # A step's messages hit the port FIFO in message order with their
        # individual ready times, so one batch reservation per step books
        # exactly the sequence the per-message loop would.  A message's
        # finish is never before its ready time, so the batch's finishes ARE
        # the next step's ready times.
        ready = [earliest_start] * num_messages
        first_start = None
        for _ in range(steps):
            starts, ready = link.reserve_batch(sizes, ready)
            if first_start is None:
                first_start = float(starts[0])
        assert first_start is not None
        finish = max(max(ready), earliest_start)
        return Reservation(first_start, finish, num_bytes)

    def transfer(
        self,
        sim: Simulator,
        dimension: str,
        num_bytes: float,
        steps: int,
        on_complete: Callable[[float], None],
    ) -> None:
        """Walk ``num_bytes`` around ``dimension``'s ring as simulator events.

        Every message's next hop is reserved at the simulated time the
        message actually arrives, so port FIFO requests are chronological
        across all in-flight chunks and collectives: another transfer issued
        before this one's step ``s + 1`` becomes ready serialises into the
        latency gap instead of queueing behind a pre-booked reservation.
        This is the contention behaviour the timeline-mode :meth:`reserve`
        cannot express, and the reason the executor drives this backend in
        event mode.  The per-message walk (:meth:`_hop_messages`) queues
        each hop in the dimension's :class:`~repro.sim.engine.HopLane`,
        which books it at the place in the event order where a heap event
        of its own would fire.  The backend is bound to the simulator of
        its first transfer; driving it from another raises
        :class:`~repro.errors.SimulationError`.

        Coalescing: when this transfer is the dimension's sole *issuer* —
        every other transfer on the dimension has already booked its last
        port request — a step's messages are booked as one batch reservation
        (:meth:`~repro.sim.resources.BandwidthResource.reserve_batch`) and
        the walk advances one *step* event at a time instead of one
        *message* hop at a time, cutting the bookings per transfer by the
        messages-per-step factor.  Within a step the
        messages' ready times are spaced exactly one message serialization
        apart, and fully-booked predecessors only occupy the FIFO tails, so
        the batch books the bit-identical sequence the per-message path
        would.  The guard is re-checked at every step boundary; the moment a
        competing issuer appears on the dimension the walk falls back to
        per-message hops for its remaining steps.  The only divergence from
        the pure per-message path is a competitor issued *between* the first
        and last message arrivals of one step: its requests queue behind the
        whole step batch instead of interleaving inside it, shifting timings
        by at most one step's serialization — the pipeline-fill bound (see
        :data:`MAX_MESSAGES_PER_STEP`).
        """
        if sim is not self._sim:
            self._bind(sim)
        carving = self._carve(dimension, num_bytes, steps)
        issuing = self._issuing
        issuing[dimension] += 1
        if issuing[dimension] == 1:
            ready = [sim.now] * carving[2]
            self._bulk_step(sim, dimension, carving, 0, ready, on_complete)
            return
        self._hop_messages(sim, dimension, carving, 0, None, on_complete)

    def _bind(self, sim: Simulator) -> None:
        """Build the dimensions' hop lanes on ``sim``, the only simulator
        this backend may then be driven by."""
        if self._sim is not None:
            raise SimulationError(
                f"{self!r} already runs on another simulator; build one "
                f"backend per simulator"
            )
        self._sim = sim
        self._lanes = {dim: HopLane(sim, link) for dim, link in self._links.items()}

    def _bulk_step(
        self,
        sim: Simulator,
        dimension: str,
        carving: Carving,
        step: int,
        ready: List[float],
        on_complete: Callable[[float], None],
    ) -> None:
        """Book step ``step`` of a coalesced transfer as one batch.

        ``sim.now == ready[0]``; later messages' ready times ride along in
        the batch's per-request earliest-start sequence.
        """
        if self._issuing[dimension] > 1:
            # A competing issuer appeared at this step boundary: preserve
            # contention interleaving by walking the remaining steps per
            # message, each hop re-entering at its arrival time.
            self._hop_messages(sim, dimension, carving, step, ready, on_complete)
            return
        link, steps, _, _, sizes = carving
        _, arrival = link.reserve_batch(sizes, ready)
        if step + 1 < steps:
            sim.schedule_at(
                arrival[0], self._bulk_step, sim, dimension, carving, step + 1, arrival, on_complete
            )
            return
        finish = max(arrival)
        self._issuing[dimension] -= 1
        sim.schedule_at(finish, on_complete, finish)

    def _hop_messages(
        self,
        sim: Simulator,
        dimension: str,
        carving: Carving,
        step: int,
        ready: Optional[List[float]],
        on_complete: Callable[[float], None],
    ) -> None:
        """Walk steps ``step`` onwards one message at a time through the
        dimension's :class:`~repro.sim.engine.HopLane`.

        With ``ready=None`` every message's first hop is booked now;
        otherwise message ``m`` re-enters at ``ready[m]`` as an ordinary
        event and books its first hop then: those arrivals come from an
        earlier batch and may precede hops the lane already holds.  Every
        later hop waits in the lane, which books it at the place in the
        event order its own event would have had.  ``done`` runs once per
        message, at its last hop.
        """
        _, steps, num_messages, bytes_per_port, _ = carving
        issuing = self._issuing
        outstanding = num_messages
        finish = sim.now

        def done(arrival: float) -> None:
            nonlocal outstanding, finish
            outstanding -= 1
            if arrival > finish:
                finish = arrival
            if outstanding == 0:
                # Last request booked: successors may coalesce from here on.
                issuing[dimension] -= 1
                sim.schedule_at(finish, on_complete, finish)

        walk = self._lanes[dimension].walk
        hops = steps - step
        if ready is None:
            for _ in range(num_messages):
                walk(bytes_per_port, hops, done)
        else:
            for ready_m in ready:
                sim.schedule_at(ready_m, walk, bytes_per_port, hops, done)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def bytes_injected(self) -> float:
        """Total bytes the representative NPU injected into the fabric.

        Each dimension's ports carry identical timelines, so the booked
        link's bytes times the port count is the dimension's total.
        """
        return left_sum(
            link.bytes_moved * self._port_counts[dim]
            for dim, link in self._links.items()
        )

    def per_dimension_bytes(self) -> Dict[str, float]:
        """Bytes injected per dimension (algorithm-shape checks, Fig. 8)."""
        return {
            dim: link.bytes_moved * self._port_counts[dim]
            for dim, link in self._links.items()
        }

    def utilization(self, horizon_ns: float) -> float:
        """Mean dimension utilization over ``horizon_ns``.

        Averaged per dimension first (each dimension's ports carry equal
        shares, so a dimension's utilization is its booked link's), then
        across dimensions — the same weighting the symmetric backend
        reports, so the two backends' Fig. 10 numbers are directly
        comparable.
        """
        if not self._links or horizon_ns <= 0:
            return 0.0
        return mean_utilization(link.utilization(horizon_ns) for link in self._links.values())

    def tracers(self) -> List[IntervalTracer]:
        """Busy-interval tracers, one entry per physical port.

        A dimension's tracer stands in once per port (their timelines are
        identical by construction), preserving the exact per-port
        weighting of the utilization series.  Exposed so composing backends
        (the hybrid model) can merge this fabric's activity into a combined
        series.
        """
        tracers: List[IntervalTracer] = []
        for dim, link in self._links.items():
            tracers.extend([link.trace] * self._port_counts[dim])
        return tracers

    def utilization_series(self, horizon_ns: float, window_ns: float) -> List[tuple]:
        """Windowed link-utilization series across every port (Fig. 10)."""
        trace = UtilizationTrace(window_ns)
        return trace.utilization_series(self.tracers(), horizon_ns)

    def last_activity(self) -> float:
        """Latest time at which any port was still moving bytes."""
        return max((link.trace.last_end for link in self._links.values()), default=0.0)

    def check_accounting(self, horizon_ns: float) -> None:
        """Assert every booked port's busy time fits in ``horizon_ns`` and
        no transfer was left mid-walk.

        After a run drains, no lane holds hops and no transfer still
        issues requests; either one means a walk was dropped or never run.
        """
        for dim, link in self._links.items():
            lane = self._lanes.get(dim)
            if lane or self._issuing[dim]:
                raise ResourceError(
                    f"{link.name}: dimension {dim!r} was left mid-walk "
                    f"({len(lane) if lane else 0} hop(s) queued, "
                    f"{self._issuing[dim]} transfer(s) still issuing)"
                )
            link.check_accounting(horizon_ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        dims = ", ".join(
            f"{d}x{self._port_counts[d]}@{link.bandwidth_gbps:.0f}GB/s"
            for d, link in self._links.items()
        )
        return f"DetailedBackend({self.topology.name}: {dims})"
