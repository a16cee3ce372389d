"""Event queue and simulation clock.

The engine is deliberately minimal: events are ``(time, seq)`` ordered
callbacks held in a binary heap.  Model code schedules callbacks with
:meth:`Simulator.schedule` (relative delay) or :meth:`Simulator.schedule_at`
(absolute time) and :meth:`Simulator.run` drains the heap in time order.

A :class:`HopLane` holds the store-and-forward hops queued on one FIFO
:class:`~repro.sim.resources.BandwidthResource` and books them on it at
their places in that same ``(time, seq)`` order, most of them without a
heap entry of their own.  The collective executor's chunk loop
(``training/comm.py``) likewise runs its chunk events back to back while
they are at the heap's head.

The same engine drives both the detailed multi-node fabric model and the fast
symmetric-node model, so every experiment in the paper runs on top of this
module.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, List

from repro.errors import ResourceError, SimulationError
from repro.sim.resources import BandwidthResource

Callback = Callable[..., None]

_INF = float("inf")


class Simulator:
    """Discrete-event simulator with a nanosecond clock.

    Events fire in ``(time, seq)`` order: earlier times first, then
    insertion order, which makes the simulation fully deterministic for a
    fixed model.  Each event is one heap entry, a ``[time, seq, callback,
    args]`` list, so ordering is decided by C list comparison (``seq`` is
    unique, so the callback is never compared) and scheduling allocates
    nothing beyond that list and its argument tuple -- a comm-heavy job
    schedules about a million events.

    :meth:`run` is not the only consumer of the heap.  A :class:`HopLane`
    and the collective executor's chunk loop each pop (or never push)
    entries of their own while those are the heap's head, move :attr:`now`
    and count each as one event, so the events run in the same order, at
    the same times and with the same :attr:`events_processed` as if
    :meth:`run` had popped each.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(10.0, fired.append, "a")
    >>> sim.schedule(5.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    10.0
    """

    def __init__(self) -> None:
        #: Current simulation time in nanoseconds.  A plain attribute, read
        #: on every chunk stage; only :meth:`run`, :class:`HopLane` and the
        #: collective executor's chunk loop move it, each to the time of the
        #: event it runs, and nothing else may write it.
        self.now: float = 0.0
        self._queue: List[List[Any]] = []
        self._seq: int = 0
        self._processed: int = 0
        self._running: bool = False

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still in the queue.

        A :class:`HopLane` holding hops is one entry here, however many
        hops it holds.
        """
        return len(self._queue)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callback, *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` ns after the current time."""
        if not delay >= 0:
            raise SimulationError(
                f"cannot schedule event in the past or at a NaN delay (delay={delay})"
            )
        self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callback, *args: Any) -> None:
        """Schedule ``callback(*args)`` at an absolute simulation time.

        ``time`` must be finite and no earlier than :attr:`now`; a NaN or
        infinite time is a model bug, and the heap would otherwise fire it
        out of order.
        """
        if not self.now <= time < _INF:
            raise SimulationError(
                f"cannot schedule event at t={time}: event times must be finite "
                f"and no earlier than the current time t={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, [time, seq, callback, args])

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Fire events in order until the queue drains."""
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        queue = self._queue
        try:
            # One pop per event and no per-event method-call frames: a
            # comm-heavy job runs about a million events through here.
            while queue:
                time, _, callback, args = heappop(queue)
                self.now = time
                callback(*args)
                self._processed += 1
        finally:
            self._running = False


class HopLane:
    """The pending store-and-forward hops of one FIFO bandwidth resource.

    A message walking ``hops`` hops over ``resource`` books each hop on it
    and is forwarded at that booking's arrival.  :meth:`walk` books a
    message's first hop at :attr:`Simulator.now`; each later hop is queued
    here with the ``(time, seq)`` key its own event would have had -- its
    arrival, and a ``seq`` drawn from the simulator's counter when the hop
    is queued -- and is booked at exactly that place in the simulator's
    event order.  ``done(arrival)`` is called once per message, at its last
    hop's arrival; it runs inside the lane and may schedule events but must
    not walk another message or book the lane's resource.

    The lane books every hop itself, with
    :meth:`~repro.sim.resources.BandwidthResource.reserve_times`' arithmetic
    in its order and :meth:`~repro.sim.trace.IntervalTracer.record`'s
    merging rules, and calls neither: a contended run books hundreds of
    thousands of hops, and each call would add a Python frame to every one.
    A drain keeps the resource's FIFO tail, busy time and byte count in
    locals and writes them back before every ``done`` call and before it
    returns, so the resource reads the same at every event boundary as if
    each hop had been booked through ``reserve_times``.

    Every queued hop arrives from a booking on this one FIFO resource, whose
    latency is fixed, so arrivals never decrease in booking order, and the
    ``seq`` of each push is fresh: pushes come in key order and the lane is
    a deque, not a heap.  While it holds hops, exactly one heap entry sits at
    its head's key.  When that entry fires, the head is the global minimum;
    the lane books it and every following head whose key is below the heap's
    head, then re-arms at its new head's key.  Each queued hop counts as one
    event when it is booked, and the armed entry itself as none, so
    :attr:`Simulator.events_processed` reads as if every queued hop had been
    its own event.

    A lane is bound to the simulator it was built with.
    """

    __slots__ = ("sim", "name", "_link", "_hops")

    def __init__(self, sim: Simulator, resource: BandwidthResource) -> None:
        self.sim = sim
        self.name = resource.name
        self._link = resource
        #: ``[time, seq, num_bytes, hops_left, done]`` per queued hop, in
        #: ``(time, seq)`` order.  A list, like a heap entry, so the two
        #: compare by time and then by the unique ``seq``.
        self._hops: Deque[List[Any]] = deque()

    def __len__(self) -> int:
        """Number of hops queued and not yet booked."""
        return len(self._hops)

    def walk(self, num_bytes: float, hops: int, done: Callable[[float], None]) -> None:
        """Book a message's first of ``hops`` hops now and queue the rest."""
        link = self._link
        if not num_bytes >= 0:
            raise ResourceError(f"{link.name}: cannot transfer {num_bytes} bytes")
        sim = self.sim
        time = sim.now
        tail = link._next_free
        start = time if time > tail else tail
        serialization = num_bytes / link.bandwidth_gbps
        end = start + serialization
        link._next_free = end
        link._busy_time += serialization
        link._bytes_moved += num_bytes
        tracer = link.trace
        # ``end > start`` is false for a zero serialization and for one that
        # the start time absorbs: record() drops both.
        if tracer is not None and end > start:
            starts = tracer._starts
            ends = tracer._ends
            if ends and starts[-1] <= start <= ends[-1]:
                if end > ends[-1]:
                    ends[-1] = end
            else:
                starts.append(start)
                ends.append(end)
            tracer._merged = None
        arrival = end + link.latency_ns
        if hops == 1:
            done(arrival)
            return
        seq = sim._seq
        sim._seq = seq + 1
        hop = [arrival, seq, num_bytes, hops - 1, done]
        queued = self._hops
        queued.append(hop)
        if len(queued) == 1:
            self._arm(hop)

    def _arm(self, head: List[Any]) -> None:
        """Put the one heap entry of this lane at ``head``'s key."""
        time, seq = head[0], head[1]
        if not time < _INF:
            raise SimulationError(
                f"{self.name}: cannot queue a hop at t={time}: event times must be finite"
            )
        heappush(self.sim._queue, [time, seq, self._drain, (seq,)])

    def _drain(self, seq: int) -> None:
        """The armed entry fired: book heads while they precede the heap's head."""
        queued = self._hops
        if not queued or queued[0][1] != seq:
            head = queued[0][1] if queued else None
            raise SimulationError(
                f"{self.name}: the lane's entry armed at seq {seq} fired, but "
                f"its head hop is at seq {head}"
            )
        sim = self.sim
        queue = sim._queue
        link = self._link
        bandwidth = link.bandwidth_gbps
        latency = link.latency_ns
        tracer = link.trace
        if tracer is not None:
            starts = tracer._starts
            ends = tracer._ends
        popleft = queued.popleft
        append = queued.append
        # The link's FIFO tail, busy time and byte count, in locals until
        # the next write-back.
        tail = link._next_free
        busy = link._busy_time
        moved = link._bytes_moved
        booked = 0
        while True:
            time, _, num_bytes, hops, done = popleft()
            sim.now = time
            start = time if time > tail else tail
            serialization = num_bytes / bandwidth
            tail = start + serialization
            busy += serialization
            moved += num_bytes
            if tracer is not None and tail > start:
                if ends and starts[-1] <= start <= ends[-1]:
                    if tail > ends[-1]:
                        ends[-1] = tail
                else:
                    starts.append(start)
                    ends.append(tail)
                tracer._merged = None
            booked += 1
            if hops == 1:
                link._next_free = tail
                link._busy_time = busy
                link._bytes_moved = moved
                done(tail + latency)
            else:
                seq = sim._seq
                sim._seq = seq + 1
                append([tail + latency, seq, num_bytes, hops - 1, done])
            if not queued or (queue and queue[0] < queued[0]):
                break
        link._next_free = tail
        link._busy_time = busy
        link._bytes_moved = moved
        if queued:
            self._arm(queued[0])
        # The run loop counts the armed entry as the first hop's event.
        sim._processed += booked - 1
