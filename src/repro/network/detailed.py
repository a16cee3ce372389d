"""Detailed per-link network backend (message-level, contention-aware).

This is the ``"detailed"`` :class:`~repro.network.backend.NetworkBackend`:
the execution-grade promotion of the message-level fabric model
(:mod:`repro.network.fabric`) into the training loop.  Where the
``"symmetric"`` backend aggregates each fabric dimension into one analytical
pipe, this backend instantiates the representative NPU's *physical ports* —
one :class:`~repro.network.links.Link` per provisioned link of each active
dimension (two 200 GB/s intra-package links for ``local``/``switch``, two
25 GB/s inter-package links for ``vertical``/``horizontal``/``direct`` under
Table V) — and moves every transfer hop by hop:

* a phase of ``steps`` ring steps moves its bytes as Table III *messages*
  (8 KB by default): a message of step ``s + 1`` cannot start serialising
  until the corresponding message of step ``s`` has fully arrived at the
  next hop (serialization **plus** link latency) — hop-by-hop
  store-and-forward at message granularity, with consecutive messages of
  one step pipelining behind each other exactly as the paper's
  packet-level model does;
* each message splits across the dimension's parallel ports, and every port
  is an independent FIFO :class:`~repro.sim.resources.BandwidthResource` —
  concurrent chunks and collectives contend per link, and a message from
  another collective can slot into the latency gaps between one chunk's
  steps (the fine-grained interleaving the symmetric pipe cannot express);
* every port records busy intervals, so per-link utilization timelines and
  per-dimension byte counts are observable after a run.

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
``experiments/backend_validation.py`` bounds (<= 5 % on <= 32-NPU systems,
the repo's analogue of the paper's model-validation claim).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.config.system import DIMENSION_LINK_CLASS, NetworkConfig
from repro.errors import TopologyError
from repro.network.backend import NetworkBackend, register_backend
from repro.network.links import Link
from repro.network.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.resources import Reservation
from repro.sim.trace import IntervalTracer, UtilizationTrace


#: Default store-and-forward message size (Table III: 8 KB messages).
DEFAULT_MESSAGE_BYTES = 8 * 1024

#: Upper bound on messages simulated per ring step.  Very large transfers
#: coarsen to ``step_bytes / MAX_MESSAGES_PER_STEP``-sized messages: the
#: hop-by-hop pipeline is fully expressed after a handful of messages per
#: step, so finer carving multiplies event count without changing timing
#: beyond the pipeline-fill term (< 1/MAX of a step's serialization).
MAX_MESSAGES_PER_STEP = 8


@register_backend("detailed")
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
        message_bytes: int = DEFAULT_MESSAGE_BYTES,
        dimensions: Optional[Sequence[str]] = None,
        coalesce: bool = True,
    ) -> None:
        if message_bytes <= 0:
            raise TopologyError(
                f"message_bytes must be positive, got {message_bytes}"
            )
        self.topology = topology
        self.network = network
        self.message_bytes = message_bytes
        #: Whether uncontended steps may be booked in bulk (one reservation
        #: per step).  ``False`` forces the per-message event path
        #: for every transfer — the reference behaviour the equivalence
        #: property tests compare against.
        self.coalesce = coalesce
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
        self._ports: Dict[str, List[Link]] = {}
        for dim in selected:
            count = self._ports_for_dimension(dim, network)
            self._ports[dim] = [
                Link(src=0, dst=port, dimension=dim, network=network, traced=True)
                for port in range(count)
            ]
        if not self._ports:
            raise TopologyError(
                f"topology {topology.name!r} has no active dimensions to model"
            )
        # Every message stripes equally across a dimension's ports (see
        # ``_carve``), so the ports of one dimension receive byte-identical
        # request sequences and carry bit-identical timelines.  Only the
        # *primary* port (index 0) is booked during simulation; the
        # observability surface mirrors its stats onto the sibling ports
        # (which exist as API placeholders) at reporting time.  This halves
        # the per-request bookkeeping in the hot path without changing a
        # single timing or reported statistic.
        self._primary: Dict[str, Link] = {
            dim: ports[0] for dim, ports in self._ports.items()
        }
        #: Event-mode transfers per dimension that may still *issue* port
        #: requests (booked last reservation not yet made).  The coalescing
        #: guard (see :meth:`transfer`) requires this transfer to be the
        #: dimension's sole issuer; a predecessor whose requests are all
        #: booked only occupies the FIFO tails, which batch booking queues
        #: behind exactly like the per-message path would.
        self._issuing: Dict[str, int] = {dim: 0 for dim in self._ports}
        #: Observability counters: how many event-mode transfers ran, and how
        #: many of them were bulk-booked (fully or partially).
        self.transfers_started = 0
        self.transfers_coalesced = 0

    @staticmethod
    def _ports_for_dimension(dimension: str, network: NetworkConfig) -> int:
        """Number of physical links the representative NPU drives on ``dimension``.

        Follows the Table V provisioning that
        :meth:`~repro.config.system.NetworkConfig.dimension_bandwidth_gbps`
        aggregates, so the two backends can never disagree on a dimension's
        total bandwidth.
        """
        if DIMENSION_LINK_CLASS.get(dimension) == "intra_package":
            return max(1, network.intra_package_links)
        return max(1, network.inter_package_links_per_dim)

    # ------------------------------------------------------------------
    # NetworkBackend protocol
    # ------------------------------------------------------------------
    @property
    def dimensions(self) -> List[str]:
        """Names of the dimensions with instantiated ports."""
        return list(self._ports)

    def has_dimension(self, dimension: str) -> bool:
        """Whether ``dimension`` has physical ports in this fabric."""
        return dimension in self._ports

    def ports(self, dimension: str) -> List[Link]:
        """The representative NPU's physical :class:`Link` ports on ``dimension``."""
        try:
            return self._ports[dimension]
        except KeyError:
            raise TopologyError(
                f"dimension {dimension!r} is not active in fabric {self.topology.name}"
            ) from None

    def _carve(self, dimension: str, num_bytes: float, steps: int):
        """Shared message-carving policy of :meth:`reserve` and :meth:`transfer`.

        Returns ``(ports, steps, num_messages, bytes_per_port)`` — both
        execution modes must compute identical timings for the same
        transfer, so the carving lives in exactly one place.
        """
        ports = self.ports(dimension)
        steps = max(1, steps)
        step_bytes = num_bytes / steps
        num_messages = max(1, int(-(-step_bytes // self.message_bytes)))
        num_messages = min(num_messages, MAX_MESSAGES_PER_STEP)
        bytes_per_port = step_bytes / (num_messages * len(ports))
        return ports, steps, num_messages, bytes_per_port

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
        _, steps, num_messages, bytes_per_port = self._carve(
            dimension, num_bytes, steps
        )
        primary = self._primary[dimension]
        sizes = [bytes_per_port] * num_messages
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
            starts, ready = primary.reserve_batch(sizes, ready)
            if first_start is None:
                first_start = float(starts[0])
        assert first_start is not None
        finish = max(max(ready), earliest_start)
        return Reservation(first_start, finish, num_bytes, earliest_start)

    def transfer(
        self,
        sim: Simulator,
        dimension: str,
        num_bytes: float,
        steps: int,
        on_complete: Callable[[float], None],
    ) -> None:
        """Walk ``num_bytes`` around ``dimension``'s ring as simulator events.

        Every message's next hop is reserved at the event time the message
        actually arrives, so port FIFO requests are chronological across all
        in-flight chunks and collectives: another transfer issued before this
        one's step ``s + 1`` becomes ready serialises into the latency gap
        instead of queueing behind a pre-booked reservation.  This is the
        contention behaviour the timeline-mode :meth:`reserve` cannot
        express, and the reason the executor drives this backend in event
        mode.

        Coalescing (``self.coalesce``, default on): when this transfer is
        the dimension's sole *issuer* — every other transfer on the
        dimension has already booked its last port request — a step's
        messages are booked as one batch reservation
        (:meth:`Link.reserve_batch`) and the walk advances one *step* event
        at a time instead of one *message* event, cutting the event count
        per transfer by the messages-per-step factor.  Within a step the
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
        _, steps, num_messages, bytes_per_port = self._carve(
            dimension, num_bytes, steps
        )
        primary = self._primary[dimension]
        reserve_times = primary.reserve_times
        schedule_at = sim.schedule_at
        issuing = self._issuing
        issuing[dimension] += 1
        self.transfers_started += 1
        state = {"outstanding": 0, "finish": sim.now}

        def hop(step: int) -> None:
            # A message's finish is never before sim.now, so the reservation
            # finish is the arrival at the next hop.
            _, arrival = reserve_times(bytes_per_port, sim.now)
            if step + 1 < steps:
                schedule_at(arrival, hop, step + 1)
                return
            state["outstanding"] -= 1
            state["finish"] = max(state["finish"], arrival)
            if state["outstanding"] == 0:
                # Last request booked: successors may coalesce from here on.
                issuing[dimension] -= 1
                schedule_at(state["finish"], on_complete, state["finish"])

        sizes = [bytes_per_port] * num_messages

        def bulk_step(step: int, ready: List[float]) -> None:
            # sim.now == ready[0]; later messages' ready times ride along in
            # the batch's per-request earliest-start sequence.
            if issuing[dimension] > 1:
                # A competing issuer appeared at this step boundary: preserve
                # contention interleaving by walking the remaining steps
                # per message, each hop re-entering at its arrival time.
                state["outstanding"] += num_messages
                for ready_m in ready:
                    schedule_at(ready_m, hop, step)
                return
            _, arrival = primary.reserve_batch(sizes, ready)
            if step + 1 < steps:
                schedule_at(arrival[0], bulk_step, step + 1, arrival)
                return
            finish = max(arrival)
            issuing[dimension] -= 1
            schedule_at(finish, on_complete, finish)

        if self.coalesce and issuing[dimension] == 1:
            self.transfers_coalesced += 1
            bulk_step(0, [sim.now] * num_messages)
            return

        state["outstanding"] = num_messages
        for _ in range(num_messages):
            hop(0)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _all_ports(self) -> List[Link]:
        return [port for ports in self._ports.values() for port in ports]

    @property
    def num_links(self) -> int:
        """Number of instantiated physical port links."""
        return len(self._all_ports())

    @property
    def injection_bandwidth_gbps(self) -> float:
        """Total per-NPU injection bandwidth across all ports."""
        return sum(p.effective_bandwidth_gbps for p in self._all_ports())

    @property
    def bytes_injected(self) -> float:
        """Total bytes the representative NPU injected into the fabric.

        Each dimension's ports carry identical timelines, so the primary
        port's bytes times the port count is the dimension's total.
        """
        return sum(
            self._primary[dim].bytes_moved * len(ports)
            for dim, ports in self._ports.items()
        )

    def achieved_bandwidth_gbps(self, horizon_ns: float) -> float:
        """Average network bandwidth the representative NPU drove over ``horizon_ns``."""
        if horizon_ns <= 0:
            return 0.0
        return self.bytes_injected / horizon_ns

    def per_dimension_bytes(self) -> Dict[str, float]:
        """Bytes injected per dimension (algorithm-shape checks, Fig. 8)."""
        return {
            dim: self._primary[dim].bytes_moved * len(ports)
            for dim, ports in self._ports.items()
        }

    def per_link_stats(self) -> List[Dict[str, float]]:
        """One row per physical port: dimension, bytes moved, busy time.

        Sibling ports mirror the primary's stats — they carry byte-identical
        timelines by construction (messages stripe equally across a
        dimension's ports), so every row is the port's true traffic.
        """
        rows: List[Dict[str, float]] = []
        for dim, ports in self._ports.items():
            primary = self._primary[dim]
            for index, port in enumerate(ports):
                rows.append(
                    {
                        "dimension": dim,
                        "port": float(index),
                        "bytes_moved": primary.bytes_moved,
                        "busy_time_ns": primary.busy_time,
                        "bandwidth_gbps": port.effective_bandwidth_gbps,
                    }
                )
        return rows

    def utilization(self, horizon_ns: float) -> float:
        """Mean dimension utilization over ``horizon_ns``.

        Averaged per dimension first (each dimension's ports carry equal
        shares, so a dimension's utilization is its primary port's), then
        across dimensions — the same weighting the symmetric backend
        reports, so the two backends' Fig. 10 numbers are directly
        comparable.
        """
        if not self._ports or horizon_ns <= 0:
            return 0.0
        per_dim = [
            self._primary[dim].utilization(horizon_ns) for dim in self._ports
        ]
        return sum(per_dim) / len(per_dim)

    def tracers(self) -> List[IntervalTracer]:
        """Busy-interval tracers, one entry per physical port.

        The primary tracer stands in once per sibling port (their timelines
        are identical by construction), preserving the exact per-port
        weighting of the utilization series.  Exposed so composing backends
        (the hybrid model) can merge this fabric's activity into a combined
        series.
        """
        tracers: List[IntervalTracer] = []
        for dim, ports in self._ports.items():
            tracer = self._primary[dim].tracer
            if tracer is not None:
                tracers.extend([tracer] * len(ports))
        return tracers

    def utilization_series(self, horizon_ns: float, window_ns: float) -> List[tuple]:
        """Windowed link-utilization series across every port (Fig. 10)."""
        trace = UtilizationTrace(window_ns)
        return trace.utilization_series(self.tracers(), horizon_ns)

    def last_activity(self) -> float:
        """Latest time at which any port was still moving bytes."""
        return max(
            (
                primary.tracer.last_end
                for primary in self._primary.values()
                if primary.tracer is not None
            ),
            default=0.0,
        )

    def check_accounting(self, horizon_ns: float) -> None:
        """Assert every booked port's busy time fits in ``horizon_ns``."""
        for primary in self._primary.values():
            primary.check_accounting(horizon_ns)

    def reset(self) -> None:
        """Clear every port's reservations and accounting."""
        for port in self._all_ports():
            port.reset()
        for dim in self._issuing:
            self._issuing[dim] = 0
        self.transfers_started = 0
        self.transfers_coalesced = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        dims = ", ".join(
            f"{d}x{len(ports)}@{ports[0].effective_bandwidth_gbps:.0f}GB/s"
            for d, ports in self._ports.items()
        )
        return f"DetailedBackend({self.topology.name}: {dims})"
