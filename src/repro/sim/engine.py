"""Event queue and simulation clock.

The engine is deliberately minimal: events are ``(time, priority, seq)``
ordered callbacks held in a binary heap.  Model code schedules callbacks with
:meth:`Simulator.schedule` (relative delay) or :meth:`Simulator.schedule_at`
(absolute time) and the simulator drains the heap in time order.

The same engine drives both the detailed multi-node fabric model and the fast
symmetric-node model, so every experiment in the paper runs on top of this
module.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError

Callback = Callable[..., None]

#: A scheduled event, as held in the heap: ``[time, priority, seq, callback,
#: args]``.  :meth:`Simulator.schedule_at` returns the entry itself as the
#: event's handle; :meth:`Simulator.cancel` clears its callback.
EventHandle = List[Any]

_INF = float("inf")


class Simulator:
    """Discrete-event simulator with a nanosecond clock.

    Events fire in ``(time, priority, seq)`` order: earlier times first, then
    lower priority values, then insertion order, which makes the simulation
    fully deterministic for a fixed model.  Each event is one heap entry, a
    ``[time, priority, seq, callback, args]`` list, so ordering is decided by
    C list comparison (``seq`` is unique, so the callback is never compared)
    and scheduling allocates nothing beyond that list and its argument tuple
    -- a comm-heavy job schedules about a million events.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(10.0, fired.append, "a")
    >>> _ = sim.schedule(5.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    10.0
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._queue: List[EventHandle] = []
        self._seq: int = 0
        self._processed: int = 0
        self._running: bool = False

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still in the queue (including cancelled ones)."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callback, *args: Any, priority: int = 0
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ns after the current time."""
        if not delay >= 0:
            raise SimulationError(
                f"cannot schedule event in the past or at a NaN delay (delay={delay})"
            )
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self, time: float, callback: Callback, *args: Any, priority: int = 0
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulation time.

        ``time`` must be finite and no earlier than :attr:`now`; a NaN or
        infinite time is a model bug, and the heap would otherwise fire it
        out of order.  Returns the event's handle for :meth:`cancel`.
        """
        if not self._now <= time < _INF:
            raise SimulationError(
                f"cannot schedule event at t={time}: event times must be finite "
                f"and no earlier than the current time t={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = [time, priority, seq, callback, args]
        heappush(self._queue, entry)
        return entry

    def cancel(self, handle: EventHandle) -> None:
        """Skip the event behind ``handle``; a fired event is left untouched."""
        handle[3] = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire.

        Returns the simulation time when the run stopped.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        queue = self._queue
        limit = _INF if until is None else until
        # Counts down to 0; from -1 it never gets there.
        remaining = -1 if max_events is None else max_events
        try:
            # One pop per event and no per-event method-call frames: a
            # comm-heavy job runs about a million events through here.
            while queue:
                entry = heappop(queue)
                time, _, _, callback, args = entry
                if callback is None:
                    continue
                if time > limit or remaining == 0:
                    # Not due in this run: put it back.  ``(time, priority,
                    # seq)`` is unique, so its place in the order is kept.
                    heappush(queue, entry)
                    break
                self._now = time
                callback(*args)
                self._processed += 1
                remaining -= 1
            if until is not None and until > self._now and (not queue or queue[0][0] > until):
                # No event due by ``until`` is left, so the clock reaches it
                # (a run stopped by ``max_events`` leaves one at the head).
                self._now = until
        finally:
            self._running = False
        return self._now

    def reset(self) -> None:
        """Clear the queue and reset the clock to zero."""
        self._now = 0.0
        self._queue.clear()
        self._seq = 0
        self._processed = 0
