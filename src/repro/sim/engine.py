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

import heapq
from typing import Any, Callable, Optional

from repro.errors import SimulationError

Callback = Callable[..., None]


class Event:
    """A single scheduled callback.

    Ordering is by ``(time, priority, seq)``: earlier times first, then lower
    priority values, then insertion order, which makes the simulation fully
    deterministic for a fixed model.  The heap holds ``(time, priority, seq,
    event)`` tuples so ordering is decided by C tuple comparison (``seq`` is
    unique, so the event itself is never compared) — with hundreds of
    thousands of events per run, a python ``__lt__`` per heap sift is real
    wall-clock.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "kwargs", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callback,
        args: tuple = (),
        kwargs: Optional[dict] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        # ``None`` (not ``{}``) when absent: skips a dict allocation per
        # event, and the vast majority of events carry no kwargs.
        self.kwargs = kwargs
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Event(t={self.time}, prio={self.priority}, seq={self.seq}, "
            f"{getattr(self.callback, '__name__', self.callback)!r})"
        )


class Simulator:
    """Discrete-event simulator with a nanosecond clock.

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
        # Heap of (time, priority, seq, Event); see Event for why tuples.
        self._queue: list[tuple[float, int, int, Event]] = []
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
        self,
        delay: float,
        callback: Callback,
        *args: Any,
        priority: int = 0,
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` ns after the current time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority, **kwargs)

    def schedule_at(
        self,
        time: float,
        callback: Callback,
        *args: Any,
        priority: int = 0,
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback`` at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, callback, args, kwargs or None)
        heapq.heappush(self._queue, (time, priority, seq, event))
        return event

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
        # One heap-top inspection per event and no per-event method-call
        # frames: this loop runs hundreds of thousands of times in a
        # detailed-backend simulation.
        queue = self._queue
        heappop = heapq.heappop
        try:
            executed = 0
            while queue:
                event = queue[0][3]
                if event.cancelled:
                    heappop(queue)
                    continue
                time = event.time
                if until is not None and time > until:
                    self._now = until
                    break
                if max_events is not None and executed >= max_events:
                    break
                heappop(queue)
                self._now = time
                kwargs = event.kwargs
                if kwargs:
                    event.callback(*event.args, **kwargs)
                else:
                    event.callback(*event.args)
                self._processed += 1
                executed += 1
            else:
                if until is not None and until > self._now:
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
