"""Discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(10.0, order.append, "b")
    sim.schedule(5.0, order.append, "a")
    sim.schedule(20.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 20.0


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    sim.schedule(5.0, order.append, "first")
    sim.schedule(5.0, order.append, "second")
    sim.run()
    assert order == ["first", "second"]


def test_priority_orders_same_time_events():
    sim = Simulator()
    order = []
    sim.schedule(5.0, order.append, "low", priority=5)
    sim.schedule(5.0, order.append, "high", priority=0)
    sim.run()
    assert order == ["high", "low"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(5.0, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []
    assert sim.events_processed == 0


def test_run_until_stops_clock():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "a")
    sim.schedule(50.0, fired.append, "b")
    sim.run(until=10.0)
    assert fired == ["a"]
    assert sim.now == 10.0
    sim.run()
    assert fired == ["a", "b"]


def test_events_scheduled_during_execution():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_max_events_limit():
    sim = Simulator()
    for i in range(10):
        sim.schedule(float(i), lambda: None)
    sim.run(max_events=4)
    assert sim.events_processed == 4
    assert sim.pending_events == 6


def test_reset():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    sim.reset()
    assert sim.now == 0.0
    assert sim.pending_events == 0
    assert sim.events_processed == 0


def test_run_is_not_reentrant():
    sim = Simulator()

    def nested():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, nested)
    sim.run()
