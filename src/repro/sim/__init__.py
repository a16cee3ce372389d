"""Discrete-event simulation core.

This package provides the small, dependency-free event engine that everything
else in the simulator is built on:

* :class:`~repro.sim.engine.Simulator` — the event loop and clock; an
  event is one heap entry.
* :class:`~repro.sim.resources.BandwidthResource` /
  :class:`~repro.sim.resources.SlotResource` — shared hardware resources with
  FIFO queuing.
* :class:`~repro.sim.trace.IntervalTracer` /
  :class:`~repro.sim.trace.UtilizationTrace` — busy-interval recording used to
  produce the utilization timelines of Fig. 10.
"""

from repro.sim.engine import Simulator
from repro.sim.resources import BandwidthResource, SlotResource
from repro.sim.trace import IntervalTracer, UtilizationTrace

__all__ = [
    "Simulator",
    "BandwidthResource",
    "SlotResource",
    "IntervalTracer",
    "UtilizationTrace",
]
