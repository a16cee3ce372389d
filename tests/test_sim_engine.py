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
    handle = sim.schedule(5.0, fired.append, "x")
    sim.cancel(handle)
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


def test_run_until_never_moves_the_clock_back():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.schedule(20.0, lambda: None)
    sim.run(max_events=1)
    sim.run(until=5.0)
    assert sim.now == 10.0


def test_run_until_with_max_events():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(20.0, lambda: None)
    # The budget runs out, but nothing else is due by t=10: the clock gets there.
    sim.run(until=10.0, max_events=1)
    assert sim.now == 10.0
    # The budget stops the run with the t=20 event due: the clock stays put.
    sim.run(until=30.0, max_events=0)
    assert sim.now == 10.0
    assert sim.pending_events == 1


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


# One event: (time or delay, priority).  A root event is scheduled at its
# time before the run; the event with seq ``k`` schedules ``spawn[k]`` (a
# delay) when it fires, and cancels the pending event with seq
# ``cancels[k]`` if there is one.
_EVENT = st.tuples(st.integers(0, 12).map(float), st.integers(-2, 2))
# One slice: ``run(until=..., max_events=...)``, either bound possibly None.
_SLICE = st.tuples(
    st.none() | st.integers(0, 30).map(float),
    st.none() | st.integers(0, 6),
)


def _play(roots, spawn, cancels, slices):
    """Run one schedule; returns ``(fired, events_processed)``.

    Asserts along the way that every event fires at its own time and is the
    least ``(time, priority, seq)`` of the events pending when it fires, and
    that each slice stops where its bounds say, with the clock at ``until``
    unless ``max_events`` left an event due by then.
    """
    sim = Simulator()
    fired = []
    handles = []
    pending = {}

    def schedule(time, priority):
        seq = len(handles)
        handles.append(sim.schedule_at(time, fire, seq, priority=priority))
        pending[seq] = (time, priority, seq)

    def fire(seq):
        key = pending.pop(seq)
        assert not pending or key < min(pending.values())
        assert sim.now == key[0]
        fired.append((seq, sim.now))
        if seq < len(spawn):
            delay, priority = spawn[seq]
            schedule(sim.now + delay, priority)
        if seq < len(cancels) and cancels[seq] in pending:
            sim.cancel(handles[cancels[seq]])
            del pending[cancels[seq]]

    for time, priority in roots:
        schedule(time, priority)
    for until, max_events in slices:
        before, count = sim.now, len(fired)
        sim.run(until=until, max_events=max_events)
        ran = len(fired) - count
        last = fired[-1][1] if ran else before
        if any(until is None or key[0] <= until for key in pending.values()):
            assert ran == max_events
            assert sim.now == last
        else:
            assert max_events is None or ran <= max_events
            assert sim.now == (last if until is None else max(before, until))
    sim.run()
    assert not pending
    return fired, sim.events_processed


@settings(max_examples=60, deadline=None)
@given(
    roots=st.lists(_EVENT, max_size=12),
    spawn=st.lists(_EVENT, max_size=20),
    cancels=st.lists(st.integers(0, 30), max_size=20),
    slices=st.lists(_SLICE, max_size=6),
)
def test_events_fire_in_key_order_however_the_run_is_sliced(roots, spawn, cancels, slices):
    whole = _play(roots, spawn, cancels, [])
    assert _play(roots, spawn, cancels, slices) == whole
    assert whole[1] == len(whole[0])
