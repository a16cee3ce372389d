"""Shared hardware resources with FIFO queuing.

Two resource flavours cover everything the platform model needs:

* :class:`BandwidthResource` — a pipe with a fixed bandwidth (GB/s).  Requests
  of N bytes serialize through the pipe in FIFO order; the resource returns
  the start/finish times and, given a tracer, records busy intervals so
  utilization can be reported afterwards.  Links, memory channels, DMA
  engines and buses are all instances of this class.

* :class:`SlotResource` — a counted resource (e.g. the number of programmable
  FSMs inside ACE, or the number of SMs carved out for communication).
  Acquisition is immediate if a slot is free, otherwise the acquisition time
  is deferred to the earliest release.

Both are timeline models: the caller asks "if I start a transfer of N bytes
no earlier than time t, when does it start and finish?".  No simulator
events are generated, which keeps large sweeps fast, yet FIFO contention and
queuing delays are preserved.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from repro.errors import ResourceError
from repro.sim.trace import IntervalTracer


class Reservation(NamedTuple):
    """Outcome of a bandwidth reservation (immutable, built in one call)."""

    start: float
    finish: float
    num_bytes: float


class BandwidthResource:
    """A FIFO-serialised pipe with fixed bandwidth.

    Parameters
    ----------
    name:
        Label used in traces and error messages.
    bandwidth_gbps:
        Bandwidth in GB/s (== bytes per nanosecond).
    latency_ns:
        Fixed latency added to every transfer (paid once per request, after
        serialization; models link/bus latency).
    trace:
        Optional :class:`IntervalTracer` that records busy intervals.
    """

    def __init__(
        self,
        name: str,
        bandwidth_gbps: float,
        latency_ns: float = 0.0,
        trace: Optional[IntervalTracer] = None,
    ) -> None:
        if not bandwidth_gbps > 0:
            raise ResourceError(f"{name}: bandwidth must be positive, got {bandwidth_gbps}")
        if not latency_ns >= 0:
            raise ResourceError(f"{name}: latency must be non-negative, got {latency_ns}")
        self.name = name
        self.bandwidth_gbps = bandwidth_gbps
        self.latency_ns = latency_ns
        self.trace = trace
        self._next_free: float = 0.0
        self._busy_time: float = 0.0
        self._bytes_moved: float = 0.0

    def reserve(self, num_bytes: float, earliest_start: float) -> Reservation:
        """Reserve the pipe for ``num_bytes`` starting no earlier than ``earliest_start``.

        Returns the FIFO-consistent start and finish times and advances the
        internal "next free" pointer.
        """
        if not num_bytes >= 0:
            raise ResourceError(f"{self.name}: cannot transfer {num_bytes} bytes")
        start = max(earliest_start, self._next_free)
        serialization = num_bytes / self.bandwidth_gbps
        end = start + serialization
        self._next_free = end
        self._busy_time += serialization
        self._bytes_moved += num_bytes
        if self.trace is not None and serialization > 0:
            self.trace.record(start, end)
        return Reservation(start, end + self.latency_ns, num_bytes)

    def reserve_times(self, num_bytes: float, earliest_start: float) -> Tuple[float, float]:
        """:meth:`reserve` without the :class:`Reservation` wrapper.

        Identical FIFO queuing, accounting and tracing; returns the bare
        ``(start, finish)`` pair.  The endpoints and the symmetric backend
        book their pipes through it.  The detailed backend's hop lanes
        (:class:`~repro.sim.engine.HopLane`) do not call it: they apply
        this arithmetic, in this order, inline on the resource's FIFO tail,
        busy time and byte count, so a change here must be made there too.
        """
        if not num_bytes >= 0:
            raise ResourceError(f"{self.name}: cannot transfer {num_bytes} bytes")
        next_free = self._next_free
        start = earliest_start if earliest_start > next_free else next_free
        serialization = num_bytes / self.bandwidth_gbps
        end = start + serialization
        self._next_free = end
        self._busy_time += serialization
        self._bytes_moved += num_bytes
        if self.trace is not None and serialization > 0:
            self.trace.record(start, end)
        return start, end + self.latency_ns

    def reserve_batch(
        self, num_bytes: List[float], earliest_start: List[float]
    ) -> Tuple[List[float], List[float]]:
        """Book a whole sequence of FIFO requests in one call.

        Returns the ``(starts, finishes)`` lists.  The starts, the finishes,
        the final FIFO tail and the merged trace are bit-identical to
        calling :meth:`reserve` once per element in order: the same
        arithmetic runs in the same order.  ``busy_time`` and
        ``bytes_moved`` are not: the batch sums its requests first and adds
        that sum once, so on a resource that already carries load they can
        differ from per-request accumulation in the last bits.  The
        detailed backend books one ring step's messages (at most
        ``MAX_MESSAGES_PER_STEP``) per call.

        Busy intervals are recorded *merged*: a run of back-to-back requests
        (each starting exactly where the previous one stopped serialising)
        becomes one trace interval, which keeps the interval count — and
        therefore utilization post-processing — proportional to the number
        of idle gaps rather than the number of requests.
        """
        if len(num_bytes) != len(earliest_start):
            raise ResourceError(
                f"{self.name}: reserve_batch needs matching sequences, "
                f"got lengths {len(num_bytes)} and {len(earliest_start)}"
            )
        bandwidth = self.bandwidth_gbps
        latency = self.latency_ns
        next_free = self._next_free
        busy = 0.0
        moved = 0.0
        starts: List[float] = []
        finishes: List[float] = []
        run_start = -1.0
        run_end = -1.0
        trace = self.trace
        for bytes_i, earliest_i in zip(num_bytes, earliest_start):
            if not bytes_i >= 0:
                raise ResourceError(f"{self.name}: cannot transfer {bytes_i} bytes")
            start = earliest_i if earliest_i > next_free else next_free
            serialization = bytes_i / bandwidth
            end = start + serialization
            starts.append(start)
            finishes.append(end + latency)
            next_free = end
            busy += serialization
            moved += bytes_i
            if trace is not None and serialization > 0:
                if run_start < 0.0:
                    run_start, run_end = start, end
                elif start > run_end:
                    trace.record(run_start, run_end)
                    run_start, run_end = start, end
                else:
                    run_end = end
        if trace is not None and run_start >= 0.0:
            trace.record(run_start, run_end)
        self._next_free = next_free
        self._busy_time += busy
        self._bytes_moved += moved
        return starts, finishes

    def check_accounting(self, horizon_ns: float) -> None:
        """Assert that accumulated busy time fits inside ``horizon_ns``.

        A FIFO pipe can never be busy for longer than the horizon that
        contains all of its activity; ``busy_time > horizon`` means two
        reservations overlapped (double-booking) — exactly the failure mode
        batched/coalesced booking could introduce.  Raises
        :class:`~repro.errors.ResourceError` on violation.  Cheap (one
        comparison); every job calls it, through its fabric, after it
        simulates.
        """
        if horizon_ns < 0:
            raise ResourceError(f"{self.name}: negative horizon {horizon_ns}")
        # Tolerate float accumulation only: busy_time is a sum of many
        # serializations, the horizon a single max.
        slack = 1e-9 * max(horizon_ns, 1.0)
        if self._busy_time > horizon_ns + slack:
            raise ResourceError(
                f"{self.name}: busy accounting exceeds the horizon "
                f"({self._busy_time:.3f} ns busy > {horizon_ns:.3f} ns "
                f"horizon): reservations double-booked the pipe"
            )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def busy_time(self) -> float:
        """Total serialization time accumulated on this resource."""
        return self._busy_time

    @property
    def bytes_moved(self) -> float:
        """Total bytes serialised through this resource."""
        return self._bytes_moved

    def utilization(self, horizon_ns: float) -> float:
        """Fraction of ``horizon_ns`` this resource spent busy.

        Deliberately *not* clamped to 1.0: a ratio above one means the busy
        accounting exceeds the horizon, i.e. reservations double-booked the
        pipe, and clamping would silently mask that bug.  Presentation
        layers (the windowed utilization series, report tables) clamp for
        display; :meth:`check_accounting` turns a ratio above one into a
        hard error at the end of every job.
        """
        if horizon_ns <= 0:
            return 0.0
        return self._busy_time / horizon_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"BandwidthResource({self.name!r}, {self.bandwidth_gbps} GB/s, "
            f"busy={self._busy_time:.1f} ns)"
        )


class SlotResource:
    """A counted resource (FSMs, SM groups, DMA channels, ...).

    The resource tracks the release time of each slot and hands the
    earliest-available slot to the caller.
    """

    def __init__(self, name: str, num_slots: int) -> None:
        if num_slots <= 0:
            raise ResourceError(f"{name}: need at least one slot, got {num_slots}")
        self.name = name
        self.num_slots = num_slots
        self._release_times: List[float] = [0.0] * num_slots

    def acquire(self, earliest_start: float, duration: float) -> Tuple[int, float, float]:
        """Grab the earliest-free slot for ``duration`` ns.

        Returns ``(slot_index, start, finish)``.
        """
        if not duration >= 0:
            raise ResourceError(f"{self.name}: duration must be non-negative, got {duration}")
        # Manual argmin: slot counts are single digits and this runs per
        # phase, where a keyed min() lambda is measurable overhead.
        release_times = self._release_times
        slot = 0
        earliest = release_times[0]
        for index in range(1, self.num_slots):
            if release_times[index] < earliest:
                slot = index
                earliest = release_times[index]
        start = earliest if earliest > earliest_start else earliest_start
        finish = start + duration
        release_times[slot] = finish
        return slot, start, finish

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SlotResource({self.name!r}, slots={self.num_slots})"
