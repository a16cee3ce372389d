"""The detailed backend's hop lanes book what one event per hop books.

:class:`~repro.sim.engine.HopLane` books queued store-and-forward hops
inline while they precede the simulator's next event, so a contended
detailed transfer no longer schedules one heap event per message hop.  The
unit tests pin the lane's place in the ``(time, seq)`` event order; the
property drives random contended collectives through the lane-backed
:class:`~repro.network.detailed.DetailedBackend` and through
:class:`oracles.PerHopEventBackend`, which keeps one event per hop, and
requires the same booking sequence on every link, the same completion times
and the same event count.
"""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from oracles import PerHopEventBackend
from repro.collectives.base import CollectiveOp
from repro.collectives.planner import supported_algorithms
from repro.config.presets import make_system
from repro.errors import ResourceError, SimulationError
from repro.network import topology_from_spec
from repro.network.detailed import DetailedBackend
from repro.sim.engine import HopLane, Simulator
from repro.sim.resources import BandwidthResource
from repro.training.comm import CollectiveExecutor
from repro.units import KB, MB

# ---------------------------------------------------------------------------
# HopLane in the event order
# ---------------------------------------------------------------------------


def _lane():
    """A lane on a 1 byte/ns link with 10 ns latency: a 100-byte hop
    booked on an idle link at ``t`` arrives at ``t + 110``."""
    sim = Simulator()
    link = BandwidthResource("link", bandwidth_gbps=1.0, latency_ns=10.0)
    return sim, HopLane(sim, link)


def _note(fired, sim, label, *_):
    fired.append((label, sim.now))


def test_event_scheduled_before_the_hop_was_queued_fires_first():
    sim, lane = _lane()
    fired = []
    sim.schedule_at(110.0, _note, fired, sim, "event")
    sim.schedule_at(210.0, _note, fired, sim, "tie")
    lane.walk(100.0, 2, partial(_note, fired, sim, "first"))  # queued at 110
    lane.walk(100.0, 2, partial(_note, fired, sim, "second"))  # queued at 210
    sim.run()
    # The second hop's time ties with an earlier-scheduled event when the
    # lane books the first: the tie goes to the smaller seq, the event.
    assert fired == [
        ("event", 110.0),
        ("first", 110.0),
        ("tie", 210.0),
        ("second", 210.0),
    ]


def test_event_scheduled_after_the_hop_was_queued_fires_after_it():
    sim, lane = _lane()
    fired = []
    lane.walk(100.0, 2, partial(_note, fired, sim, "hop"))
    sim.schedule_at(110.0, _note, fired, sim, "event")
    sim.run()
    assert fired == [("hop", 110.0), ("event", 110.0)]


def test_event_between_two_queued_hops_fires_between_them_and_the_lane_rearms():
    sim, lane = _lane()
    fired = []
    lane.walk(100.0, 2, partial(_note, fired, sim, "first"))  # queued at 110
    lane.walk(100.0, 2, partial(_note, fired, sim, "second"))  # queued at 210

    def between():
        fired.append(("between", sim.now))
        # The second hop is still queued, behind one re-armed heap entry,
        # and ahead of the event scheduled at its own time after it.
        assert len(lane) == 1
        assert sim.pending_events == 2

    sim.schedule_at(150.0, between)
    sim.schedule_at(210.0, _note, fired, sim, "tie")
    sim.run()
    assert fired == [
        ("first", 110.0),
        ("between", 150.0),
        ("second", 210.0),
        ("tie", 210.0),
    ]
    assert len(lane) == 0
    assert sim.events_processed == 4


def test_a_lane_holding_hops_has_exactly_one_heap_entry():
    sim, lane = _lane()
    arrivals = []
    for _ in range(3):
        lane.walk(100.0, 4, arrivals.append)
    assert len(lane) == 3
    assert sim.pending_events == 1
    probes = [50.0 * k for k in range(1, 30)]

    def probe(remaining):
        assert sim.pending_events == remaining + (1 if len(lane) else 0)

    for index, time in enumerate(probes):
        sim.schedule_at(time, probe, len(probes) - index - 1)
    sim.run()
    assert len(arrivals) == 3 and len(lane) == 0
    # Nine queued hops and the probes, each counted once.
    assert sim.events_processed == 9 + len(probes)


def test_a_hop_arriving_after_the_last_event_is_booked_inline():
    sim, lane = _lane()
    arrivals = []
    lane.walk(100.0, 3, arrivals.append)
    sim.run()
    # Two queued hops: 110 -> [110, 210] -> 220 -> [220, 320] -> 330.
    assert arrivals == [330.0]
    assert sim.now == 220.0
    assert sim.events_processed == 2


def test_an_entry_that_finds_another_head_is_an_error():
    sim, lane = _lane()
    lane.walk(100.0, 2, lambda arrival: None)
    with pytest.raises(SimulationError, match="armed"):
        lane._drain(-1)


# ---------------------------------------------------------------------------
# The detailed backend's use of its lanes
# ---------------------------------------------------------------------------


def _torus():
    topology = topology_from_spec("torus:4x2x2")
    return topology, make_system("ace").network


@pytest.mark.parametrize("coalesce", (True, False))
def test_a_transfer_never_run_fails_the_accounting_check(coalesce):
    topology, network = _torus()
    backend = DetailedBackend(topology, network, coalesce=coalesce)
    dim = backend.dimensions[0]
    backend.transfer(Simulator(), dim, 1 * MB, 3, lambda finish: None)
    with pytest.raises(ResourceError, match=f"'{dim}'.*mid-walk"):
        backend.check_accounting(1e12)


def test_a_backend_is_driven_by_one_simulator():
    topology, network = _torus()
    backend = DetailedBackend(topology, network)
    dim = backend.dimensions[0]
    first = Simulator()
    backend.transfer(first, dim, 1 * MB, 2, lambda finish: None)
    first.run()
    with pytest.raises(SimulationError, match="another simulator"):
        backend.transfer(Simulator(), dim, 1 * MB, 2, lambda finish: None)


# ---------------------------------------------------------------------------
# Lane walk against one event per hop
# ---------------------------------------------------------------------------

_FABRICS = ("torus:4x2x2", "torus:4x4x2", "fc:16", "switch:16")
_OPS = (
    CollectiveOp.ALL_REDUCE,
    CollectiveOp.REDUCE_SCATTER,
    CollectiveOp.ALL_GATHER,
    CollectiveOp.ALL_TO_ALL,
)


@st.composite
def _contended_cases(draw):
    """A fabric, an algorithm the planner accepts there, a chunk size,
    1-4 collectives issued at drawn times, the coalescing switch and how
    often a booking schedules probe events (0: never)."""
    fabric = draw(st.sampled_from(_FABRICS))
    topology = topology_from_spec(fabric)
    accepted = {op: supported_algorithms(op, topology) for op in _OPS}
    algorithm = draw(
        st.sampled_from(sorted({name for names in accepted.values() for name in names}))
    )
    ops = [op for op in _OPS if algorithm in accepted[op]]
    collectives = draw(
        st.lists(
            st.tuples(
                st.sampled_from(ops),
                st.integers(0, 100_000).map(float),
                st.integers(64 * KB, 2 * MB),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return {
        "fabric": fabric,
        "algorithm": algorithm,
        "chunk_bytes": draw(st.integers(64 * KB, 1 * MB)),
        "collectives": collectives,
        "coalesce": draw(st.booleans()),
        "probe_every": draw(st.integers(0, 3)),
    }


def _log_bookings(sim, dim, link, log, probe_every):
    """Wrap ``link``'s booking methods on the instance.

    Every ``(num_bytes, earliest_start) -> (start, finish)`` request is
    appended to ``log``, tagged with ``dim``.  With ``probe_every = k > 0``,
    every k-th request also schedules two probe events that log their own
    firing: one at the request's finish, drawn *before* the hop it forwards
    is queued, and one at the link's previous finish if that is still
    ahead, drawn *after* that hop was queued.  Their ties with queued hops
    pin the lane's place in the ``(time, seq)`` order.
    """
    reserve_times = link.reserve_times
    reserve_batch = link.reserve_batch
    booked = [0, 0.0]  # requests so far, last finish

    def book(num_bytes, earliest_start, start, finish):
        log.append((dim, (num_bytes, earliest_start), (start, finish)))
        booked[0] += 1
        if probe_every and booked[0] % probe_every == 0:
            sim.schedule_at(finish, log.append, ("probe", dim, finish))
            if booked[1] > sim.now:
                sim.schedule_at(booked[1], log.append, ("probe", dim, booked[1]))
        booked[1] = finish

    def logged_times(num_bytes, earliest_start):
        start, finish = reserve_times(num_bytes, earliest_start)
        book(num_bytes, earliest_start, start, finish)
        return start, finish

    def logged_batch(num_bytes, earliest_start):
        starts, finishes = reserve_batch(num_bytes, earliest_start)
        for request in zip(num_bytes, earliest_start, starts, finishes):
            book(*request)
        return starts, finishes

    link.reserve_times = logged_times
    link.reserve_batch = logged_batch


def _simulate(backend_class, case):
    """Booking and probe log, completion times and event count of one case."""
    topology = topology_from_spec(case["fabric"])
    system = make_system("ace").with_overrides(collective_algorithm=case["algorithm"])
    fabric = backend_class(topology, system.network, coalesce=case["coalesce"])
    sim = Simulator()
    # Installed before the first transfer: a lane binds reserve_times
    # when the backend builds it.
    log = []
    for dim in fabric.dimensions:
        _log_bookings(sim, dim, fabric._links[dim], log, case["probe_every"])
    executor = CollectiveExecutor(
        sim, system, topology, fabric=fabric, chunk_bytes=case["chunk_bytes"]
    )
    handles = []
    for op, issue_at, payload in case["collectives"]:
        sim.schedule_at(
            issue_at, lambda op=op, payload=payload: handles.append(executor.issue(op, payload))
        )
    sim.run()
    assert all(handle.finished for handle in handles)
    fabric.check_accounting(max(sim.now, 1.0))
    return log, [handle.completed_at for handle in handles], sim.events_processed


def _check_lane_books_like_per_hop_events(case):
    """Each link's ordered bookings, and their interleaving with the other
    links' and the probes, match one event per hop; so do the completion
    times and the event count."""
    lane_log, lane_done, lane_events = _simulate(DetailedBackend, case)
    hop_log, hop_done, hop_events = _simulate(PerHopEventBackend, case)
    assert lane_log == hop_log
    assert lane_done == hop_done
    assert lane_events == hop_events


@settings(max_examples=40, deadline=None)
@given(case=_contended_cases())
def test_lane_books_like_per_hop_events(case):
    _check_lane_books_like_per_hop_events(case)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(case=_contended_cases())
def test_lane_books_like_per_hop_events_deep(case):
    _check_lane_books_like_per_hop_events(case)
