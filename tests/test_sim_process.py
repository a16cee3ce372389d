"""Signals and co-operative processes."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.process import Process, Signal


def test_signal_fires_once_with_value():
    sim = Simulator()
    sig = Signal("s")
    assert not sig.fired
    sig.fire(sim, value=42)
    assert sig.fired
    assert sig.value == 42
    with pytest.raises(SimulationError):
        sig.fire(sim)


def test_signal_late_subscriber_still_called():
    sim = Simulator()
    sig = Signal()
    sig.fire(sim)
    called = []
    sig.on_fire(sim, lambda s: called.append(True))
    sim.run()
    assert called == [True]


def test_process_delays_advance_clock():
    sim = Simulator()

    def program():
        yield 10.0
        yield 5.0
        return "done"

    proc = Process(sim, program(), name="p")
    sim.run()
    assert proc.done.fired
    assert proc.done.value == "done"
    assert sim.now == pytest.approx(15.0)


def test_process_waits_on_signal():
    sim = Simulator()
    gate = Signal("gate")
    log = []

    def program():
        log.append(("start", sim.now))
        yield gate
        log.append(("resumed", sim.now))

    Process(sim, program())
    sim.schedule_at(100.0, gate.fire, sim)
    sim.run()
    assert log[-1] == ("resumed", 100.0)


def test_process_rejects_negative_delay():
    sim = Simulator()

    def program():
        yield -5.0

    Process(sim, program())
    with pytest.raises(SimulationError):
        sim.run()


def test_process_rejects_bad_yield_value():
    sim = Simulator()

    def program():
        yield "nonsense"

    Process(sim, program())
    with pytest.raises(SimulationError):
        sim.run()
