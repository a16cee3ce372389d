"""Lightweight signals and co-operative processes on top of the event engine.

The training loop is naturally expressed as "compute layer i, then wait until
its gradient all-reduce from the previous iteration has finished".  To keep
that code readable, this module provides:

* :class:`Signal` — a one-shot event that callbacks (or processes) can wait on.
  A signal remembers that it fired, so late subscribers resume immediately.
* :class:`Process` — runs a generator that yields either a float delay (in ns)
  or a :class:`Signal`; the process resumes when the delay elapses or the
  signal fires.  This is a tiny subset of SimPy-style processes, sufficient
  for this simulator and free of external dependencies.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Union

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class Signal:
    """A one-shot event with a value."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._fired = False
        self._value: object = None
        self._callbacks: List[Callable[["Signal"], None]] = []

    @property
    def fired(self) -> bool:
        """Whether the signal has fired."""
        return self._fired

    @property
    def value(self) -> object:
        """The value the signal fired with."""
        return self._value

    def fire(self, sim: Simulator, value: object = None) -> None:
        """Fire the signal at the current simulation time."""
        if self._fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self._fired = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def on_fire(self, sim: Simulator, callback: Callable[["Signal"], None]) -> None:
        """Invoke ``callback(signal)`` when the signal fires (immediately if it already has)."""
        if self._fired:
            # Resume on the event queue to preserve deterministic ordering.
            sim.schedule(0.0, callback, self)
        else:
            self._callbacks.append(callback)


ProcessYield = Union[float, int, Signal]


class Process:
    """Runs a generator co-operatively on a :class:`Simulator`.

    The generator may yield:

    * a non-negative number — the process sleeps for that many nanoseconds;
    * a :class:`Signal` — the process resumes when the signal fires.

    When the generator returns, :attr:`done` fires with its return value.
    """

    def __init__(self, sim: Simulator, generator: Generator[ProcessYield, None, object], name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._generator = generator
        self.done = Signal(f"{name}.done")
        sim.schedule(0.0, self._advance, None)

    def _advance(self, _: Optional[Signal]) -> None:
        try:
            yielded = next(self._generator)
        except StopIteration as stop:
            self.done.fire(self.sim, getattr(stop, "value", None))
            return
        if isinstance(yielded, Signal):
            yielded.on_fire(self.sim, self._advance)
        elif isinstance(yielded, (int, float)):
            if yielded < 0:
                raise SimulationError(f"process {self.name!r} yielded a negative delay")
            self.sim.schedule(float(yielded), self._advance, None)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {yielded!r}"
            )
