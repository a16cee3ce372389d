"""Event queue and simulation clock.

The engine is deliberately minimal: events are ``(time, seq)`` ordered
callbacks held in a binary heap.  Model code schedules callbacks with
:meth:`Simulator.schedule` (relative delay) or :meth:`Simulator.schedule_at`
(absolute time) and :meth:`Simulator.run` drains the heap in time order.

The same engine drives both the detailed multi-node fabric model and the fast
symmetric-node model, so every experiment in the paper runs on top of this
module.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List

from repro.errors import SimulationError

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
        self._now: float = 0.0
        self._queue: List[List[Any]] = []
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
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still in the queue."""
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
        self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callback, *args: Any) -> None:
        """Schedule ``callback(*args)`` at an absolute simulation time.

        ``time`` must be finite and no earlier than :attr:`now`; a NaN or
        infinite time is a model bug, and the heap would otherwise fire it
        out of order.
        """
        if not self._now <= time < _INF:
            raise SimulationError(
                f"cannot schedule event at t={time}: event times must be finite "
                f"and no earlier than the current time t={self._now}"
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
                self._now = time
                callback(*args)
                self._processed += 1
        finally:
            self._running = False
