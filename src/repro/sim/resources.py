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

Both resources can operate in two modes:

* *timeline mode* (default) — the caller asks "if I start a transfer of N
  bytes no earlier than time t, when does it start and finish?".  This is an
  analytic reservation model: no simulator events are generated, which keeps
  large sweeps fast, yet FIFO contention and queuing delays are preserved.
* *event mode* — convenience helpers that schedule a completion callback on a
  :class:`~repro.sim.engine.Simulator`.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import ResourceError
from repro.sim.engine import Simulator
from repro.sim.trace import IntervalTracer


class Reservation(NamedTuple):
    """Outcome of a bandwidth reservation (immutable, built in one call)."""

    start: float
    finish: float
    num_bytes: float
    #: The earliest start the caller asked for; ``None`` when unknown.
    requested: Optional[float] = None

    @property
    def duration(self) -> float:
        return self.finish - self.start

    @property
    def queuing_delay(self) -> float:
        """How long the request waited behind earlier requests."""
        return 0.0 if self.requested is None else max(0.0, self.start - self.requested)


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
        if bandwidth_gbps <= 0:
            raise ResourceError(f"{name}: bandwidth must be positive, got {bandwidth_gbps}")
        if latency_ns < 0:
            raise ResourceError(f"{name}: latency must be non-negative, got {latency_ns}")
        self.name = name
        self.bandwidth_gbps = bandwidth_gbps
        self.latency_ns = latency_ns
        self.trace = trace
        self._next_free: float = 0.0
        self._busy_time: float = 0.0
        self._bytes_moved: float = 0.0
        self._requests: int = 0

    # ------------------------------------------------------------------
    # Timeline mode
    # ------------------------------------------------------------------
    def reserve(self, num_bytes: float, earliest_start: float) -> Reservation:
        """Reserve the pipe for ``num_bytes`` starting no earlier than ``earliest_start``.

        Returns the FIFO-consistent start and finish times and advances the
        internal "next free" pointer.
        """
        if num_bytes < 0:
            raise ResourceError(f"{self.name}: cannot transfer negative bytes ({num_bytes})")
        start = max(earliest_start, self._next_free)
        serialization = num_bytes / self.bandwidth_gbps
        end = start + serialization
        self._next_free = end
        self._busy_time += serialization
        self._bytes_moved += num_bytes
        self._requests += 1
        if self.trace is not None and serialization > 0:
            self.trace.record(start, end)
        return Reservation(start, end + self.latency_ns, num_bytes, earliest_start)

    def reserve_times(self, num_bytes: float, earliest_start: float) -> Tuple[float, float]:
        """:meth:`reserve` without the :class:`Reservation` wrapper.

        Identical FIFO queuing, accounting and tracing; returns the bare
        ``(start, finish)`` pair.  The detailed backend's per-message event
        path calls this tens of thousands of times per run and needs only
        the two times.
        """
        if num_bytes < 0:
            raise ResourceError(f"{self.name}: cannot transfer negative bytes ({num_bytes})")
        next_free = self._next_free
        start = earliest_start if earliest_start > next_free else next_free
        serialization = num_bytes / self.bandwidth_gbps
        end = start + serialization
        self._next_free = end
        self._busy_time += serialization
        self._bytes_moved += num_bytes
        self._requests += 1
        if self.trace is not None and serialization > 0:
            self.trace.record(start, end)
        return start, end + self.latency_ns

    #: Below this batch length :meth:`reserve_batch` runs a plain-python
    #: loop: numpy's per-call overhead (asarray, reductions, fancy indexing)
    #: exceeds the arithmetic itself for the short message bursts the
    #: detailed backend books (<= 8 messages per ring step).
    SMALL_BATCH = 32

    def reserve_batch(self, num_bytes, earliest_start):
        """Book a whole sequence of FIFO requests in one call.

        Semantically equivalent to calling :meth:`reserve` once per element
        in order (same FIFO queuing, same accounting, same final
        ``next_free``).  Returns ``(starts, finishes)`` float sequences —
        numpy arrays for large batches, plain lists below
        :data:`SMALL_BATCH` elements, where a python loop beats numpy's
        per-call overhead; both are index- and iteration-compatible.  The
        vectorized path may differ from the sequential loop by reassociation
        only (last-ulp); the small-batch path is bit-identical to it.

        Busy intervals are recorded *merged*: a run of back-to-back requests
        (each starting exactly where the previous one stopped serialising)
        becomes one trace interval, which keeps the interval count — and
        therefore utilization post-processing — proportional to the number
        of idle gaps rather than the number of requests.
        """
        size = len(num_bytes)
        if size != len(earliest_start):
            raise ResourceError(
                f"{self.name}: reserve_batch needs matching 1-D sequences, "
                f"got lengths {size} and {len(earliest_start)}"
            )
        if size == 0:
            return [], []
        if size < self.SMALL_BATCH:
            return self._reserve_batch_small(num_bytes, earliest_start)
        num_bytes = np.asarray(num_bytes, dtype=np.float64)
        earliest = np.asarray(earliest_start, dtype=np.float64)
        if num_bytes.ndim != 1 or earliest.ndim != 1:
            raise ResourceError(
                f"{self.name}: reserve_batch needs matching 1-D sequences, "
                f"got shapes {num_bytes.shape} and {earliest.shape}"
            )
        if np.any(num_bytes < 0):
            raise ResourceError(f"{self.name}: cannot transfer negative bytes")
        serialization = num_bytes / self.bandwidth_gbps
        # start[i] = max(earliest[i], start[i-1] + ser[i-1]), seeded with
        # next_free.  Subtracting the serialization prefix sum turns the
        # recurrence into a running maximum.
        prefix = np.concatenate(([0.0], np.cumsum(serialization[:-1])))
        starts = (
            np.maximum.accumulate(
                np.maximum(earliest - prefix, self._next_free)
            )
            + prefix
        )
        busy_ends = starts + serialization
        finishes = busy_ends + self.latency_ns
        self._next_free = float(busy_ends[-1])
        self._busy_time += float(np.sum(serialization))
        self._bytes_moved += float(np.sum(num_bytes))
        self._requests += int(num_bytes.size)
        if self.trace is not None:
            # Merge contiguous runs: a request that starts exactly at the
            # previous busy end extends the current interval.
            active = serialization > 0
            if np.any(active):
                s = starts[active]
                e = busy_ends[active]
                breaks = np.flatnonzero(s[1:] > e[:-1]) + 1
                run_starts = np.concatenate(([0], breaks))
                run_ends = np.concatenate((breaks, [len(s)]))
                for a, b in zip(run_starts, run_ends):
                    self.trace.record(float(s[a]), float(e[b - 1]))
        return starts, finishes

    def _reserve_batch_small(self, num_bytes, earliest_start):
        """Scalar loop behind :meth:`reserve_batch` for short bursts.

        Bit-identical to sequential :meth:`reserve` calls (same arithmetic,
        same order) but with the trace intervals merged per contiguous run,
        exactly like the vectorized path.  Returns ``(starts, finishes)``
        as plain lists.
        """
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
            if bytes_i < 0:
                raise ResourceError(f"{self.name}: cannot transfer negative bytes")
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
        self._requests += len(starts)
        return starts, finishes

    def check_accounting(self, horizon_ns: float) -> None:
        """Assert that accumulated busy time fits inside ``horizon_ns``.

        A FIFO pipe can never be busy for longer than the horizon that
        contains all of its activity; ``busy_time > horizon`` means two
        reservations overlapped (double-booking) — exactly the failure mode
        batched/coalesced booking could introduce.  Raises
        :class:`~repro.errors.ResourceError` on violation.  Cheap (one
        comparison); backend-validation runs call it after every simulation.
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
    # Event mode
    # ------------------------------------------------------------------
    def transfer(
        self,
        sim: Simulator,
        num_bytes: float,
        on_complete: Callable[[Reservation], None],
    ) -> Reservation:
        """Reserve starting from ``sim.now`` and schedule ``on_complete`` at the finish time."""
        reservation = self.reserve(num_bytes, sim.now)
        sim.schedule_at(reservation.finish, on_complete, reservation)
        return reservation

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def next_free(self) -> float:
        return self._next_free

    @property
    def busy_time(self) -> float:
        """Total serialization time accumulated on this resource."""
        return self._busy_time

    @property
    def bytes_moved(self) -> float:
        return self._bytes_moved

    @property
    def requests(self) -> int:
        return self._requests

    def utilization(self, horizon_ns: float) -> float:
        """Fraction of ``horizon_ns`` this resource spent busy.

        Deliberately *not* clamped to 1.0: a ratio above one means the busy
        accounting exceeds the horizon, i.e. reservations double-booked the
        pipe, and clamping would silently mask that bug.  Presentation
        layers (the windowed utilization series, report tables) clamp for
        display; :meth:`check_accounting` turns a ratio above one into a
        hard error in validation runs.
        """
        if horizon_ns <= 0:
            return 0.0
        return self._busy_time / horizon_ns

    def achieved_bandwidth_gbps(self, horizon_ns: float) -> float:
        """Average bandwidth achieved over ``horizon_ns`` (GB/s)."""
        if horizon_ns <= 0:
            return 0.0
        return self._bytes_moved / horizon_ns

    def reset(self) -> None:
        self._next_free = 0.0
        self._busy_time = 0.0
        self._bytes_moved = 0.0
        self._requests = 0
        if self.trace is not None:
            self.trace.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"BandwidthResource({self.name!r}, {self.bandwidth_gbps} GB/s, "
            f"busy={self._busy_time:.1f} ns)"
        )


class SlotResource:
    """A counted resource (FSMs, SM groups, DMA channels, ...).

    In timeline mode the resource tracks the release time of each slot and
    hands the earliest-available slot to the caller.
    """

    def __init__(self, name: str, num_slots: int) -> None:
        if num_slots <= 0:
            raise ResourceError(f"{name}: need at least one slot, got {num_slots}")
        self.name = name
        self.num_slots = num_slots
        self._release_times: List[float] = [0.0] * num_slots
        self._busy_time: float = 0.0

    def acquire(self, earliest_start: float, duration: float) -> Tuple[int, float, float]:
        """Grab the earliest-free slot for ``duration`` ns.

        Returns ``(slot_index, start, finish)``.
        """
        if duration < 0:
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
        start = max(earliest_start, earliest)
        finish = start + duration
        self._release_times[slot] = finish
        self._busy_time += duration
        return slot, start, finish

    def earliest_available(self, earliest_start: float) -> float:
        """When could a new acquisition start if requested at ``earliest_start``?"""
        return max(earliest_start, min(self._release_times))

    @property
    def busy_time(self) -> float:
        return self._busy_time

    def utilization(self, horizon_ns: float) -> float:
        """Average fraction of slots busy over ``horizon_ns``."""
        if horizon_ns <= 0:
            return 0.0
        return min(1.0, self._busy_time / (horizon_ns * self.num_slots))

    def reset(self) -> None:
        self._release_times = [0.0] * self.num_slots
        self._busy_time = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SlotResource({self.name!r}, slots={self.num_slots})"
