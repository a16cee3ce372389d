"""Discrete-event engine."""

import math

import pytest
from hypothesis import given, settings, strategies as st

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


def test_run_is_not_reentrant():
    sim = Simulator()

    def nested():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, nested)
    sim.run()


@pytest.mark.parametrize("time", [math.nan, math.inf])
def test_non_finite_event_time_rejected(time):
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_at(time, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(time, lambda: None)
    assert sim.pending_events == 0


def test_nan_time_cannot_reorder_events():
    # Accepted, a NaN entry would sink into the heap and fire 1, 3, NaN, 5.
    sim = Simulator()
    fired = []
    sim.schedule_at(5.0, fired.append, 5.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(math.nan, fired.append, math.nan)
    sim.schedule_at(1.0, fired.append, 1.0)
    sim.schedule_at(3.0, fired.append, 3.0)
    sim.run()
    assert fired == [1.0, 3.0, 5.0]


# One event: a time (roots) or a delay (spawned children).  A root event is
# scheduled at its time before the run; the event with seq ``k`` schedules a
# child ``spawn[k]`` after itself when it fires.
_EVENT = st.integers(0, 12).map(float)


@settings(max_examples=60, deadline=None)
@given(
    roots=st.lists(_EVENT, max_size=12),
    spawn=st.lists(_EVENT, max_size=20),
)
def test_events_fire_in_key_order(roots, spawn):
    """Every event fires at its own time and is the least ``(time, seq)``
    of the events pending when it fires; the run drains every event."""
    sim = Simulator()
    fired = []
    pending = {}

    def schedule(time):
        seq = len(pending) + len(fired)
        sim.schedule_at(time, fire, seq)
        pending[seq] = (time, seq)

    def fire(seq):
        key = pending.pop(seq)
        assert not pending or key < min(pending.values())
        assert sim.now == key[0]
        fired.append(seq)
        if seq < len(spawn):
            schedule(sim.now + spawn[seq])

    for time in roots:
        schedule(time)
    sim.run()
    assert not pending
    assert sim.pending_events == 0
    assert sim.events_processed == len(fired) == len(roots) + min(len(spawn), len(fired))
