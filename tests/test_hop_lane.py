"""The detailed backend's hop lanes book what one event per hop books.

:class:`~repro.sim.engine.HopLane` books queued store-and-forward hops
inline while they precede the simulator's next event, and books each hop on
its link itself rather than through ``reserve_times``.  The unit tests pin
the lane's place in the ``(time, seq)`` event order and its accounting
against ``reserve_times`` on a twin link; the property drives random
contended collectives through the lane-backed
:class:`~repro.network.detailed.DetailedBackend` and through
:class:`oracles.PerHopEventBackend`, which keeps one event per hop, with
probe events at the oracle's booking finishes, and requires the same link
state at every probe, the same end state, the same completion times and the
same event count.
"""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    PerHopEventBackend,
    PerMessageBackend,
    PerMessageHopEventBackend,
    feasible_algorithms,
)
from repro.collectives.base import CollectiveOp
from repro.config.presets import make_system
from repro.errors import ResourceError, SimulationError
from repro.network import topology_from_spec
from repro.network.detailed import DetailedBackend
from repro.sim.engine import HopLane, Simulator
from repro.sim.resources import BandwidthResource
from repro.sim.trace import IntervalTracer
from repro.training.comm import CollectiveExecutor
from repro.units import KB, MB

# ---------------------------------------------------------------------------
# HopLane in the event order
# ---------------------------------------------------------------------------


def _link(trace=None):
    """A 1 byte/ns link with 10 ns latency: a 100-byte hop booked on it
    idle at ``t`` arrives at ``t + 110``."""
    return BandwidthResource("link", bandwidth_gbps=1.0, latency_ns=10.0, trace=trace)


def _lane():
    sim = Simulator()
    return sim, HopLane(sim, _link())


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
# HopLane bookings against reserve_times
# ---------------------------------------------------------------------------


def _walk_per_hop(sim, link, num_bytes, hops, done):
    """One heap event per hop, each booked through ``reserve_times``."""
    _, arrival = link.reserve_times(num_bytes, sim.now)
    if hops == 1:
        done(arrival)
    else:
        sim.schedule_at(arrival, _walk_per_hop, sim, link, num_bytes, hops - 1, done)


#: ``(time, num_bytes, hops)`` per message: two contending multi-hop walks,
#: zero-byte hops, a walk joining a busy lane, one whose 1-byte hops the
#: start time 1e20 absorbs (booked and counted, but no busy interval), and
#: a traced booking after those.
_REQUESTS = (
    (0.0, 100.0, 3),
    (0.0, 100.0, 2),
    (105.0, 0.0, 2),
    (150.0, 30.0, 4),
    (1000.0, 50.0, 1),
    (1e20, 1.0, 2),
    (2e20, 1e6, 2),
)


def _merged(link):
    trace = link.trace
    return None if trace is None else [array.tolist() for array in trace.merged_arrays()]


def _logging_done(link, log):
    """A ``done`` that logs its arrival and ``link`` as it reads then,
    merged busy intervals included (which caches them)."""

    def done(arrival):
        log.append((arrival, link._next_free, link.busy_time, link.bytes_moved, _merged(link)))

    return done


@pytest.mark.parametrize("traced", (True, False), ids=("traced", "untraced"))
def test_lane_accounts_like_reserve_times(traced):
    assert 1e20 + 1.0 == 1e20 and 1e20 + 10.0 == 1e20
    lane_link = _link(IntervalTracer("lane") if traced else None)
    twin = _link(IntervalTracer("twin") if traced else None)
    lane_sim, twin_sim = Simulator(), Simulator()
    lane = HopLane(lane_sim, lane_link)
    lane_done, twin_done = [], []
    for time, num_bytes, hops in _REQUESTS:
        lane_sim.schedule_at(time, lane.walk, num_bytes, hops, _logging_done(lane_link, lane_done))
        twin_sim.schedule_at(
            time, _walk_per_hop, twin_sim, twin, num_bytes, hops, _logging_done(twin, twin_done)
        )
    lane_sim.run()
    twin_sim.run()
    assert len(lane_done) == len(_REQUESTS)
    assert lane_done == twin_done
    assert lane_link._next_free == twin._next_free
    assert lane_link.busy_time == twin.busy_time
    assert lane_link.bytes_moved == twin.bytes_moved
    assert _merged(lane_link) == _merged(twin)
    assert lane_sim.events_processed == twin_sim.events_processed
    if traced:
        assert lane_link.trace._starts == twin.trace._starts
        assert lane_link.trace._ends == twin.trace._ends
        # The absorbed 1-byte hops left no interval; the next booking did.
        assert 1e20 not in twin.trace._starts
        assert twin.trace._starts[-1] == 2e20


def test_a_batch_booked_between_drains_queues_behind_the_lanes_last_hop():
    sim, link = Simulator(), _link()
    lane = HopLane(sim, link)
    batch_starts, arrivals = [], []

    def batch():
        starts, _ = link.reserve_batch([50.0], [sim.now])
        batch_starts.extend(starts)

    lane.walk(100.0, 3, arrivals.append)  # [0, 100] -> queued at 110
    sim.schedule_at(150.0, batch)
    sim.run()
    # The drain at 110 booked [110, 210] and stopped before the batch at
    # 150, which queues behind it: [210, 260].  The last hop, at 220, then
    # queues behind the batch: [260, 360] -> 370.
    assert batch_starts == [210.0]
    assert arrivals == [370.0]
    assert link.busy_time == 350.0 and link.bytes_moved == 350.0
    assert link.reserve_batch([1.0], [0.0])[0] == [360.0]


@pytest.mark.parametrize("num_bytes", (-1.0, float("nan")))
def test_a_negative_or_nan_walk_raises_with_nothing_queued(num_bytes):
    sim, link = Simulator(), _link(IntervalTracer("link"))
    lane = HopLane(sim, link)
    with pytest.raises(ResourceError, match=r"^link: cannot transfer"):
        lane.walk(num_bytes, 2, lambda arrival: None)
    assert len(lane) == 0 and sim.pending_events == 0
    assert link.bytes_moved == 0.0 and link.busy_time == 0.0
    assert link.trace._starts == []


# ---------------------------------------------------------------------------
# The detailed backend's use of its lanes
# ---------------------------------------------------------------------------


def _torus():
    topology = topology_from_spec("torus:4x2x2")
    return topology, make_system("ace").network


@pytest.mark.parametrize("coalesce", (True, False))
def test_a_transfer_never_run_fails_the_accounting_check(coalesce):
    topology, network = _torus()
    backend = (DetailedBackend if coalesce else PerMessageBackend)(topology, network)
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
    1-4 collectives issued at drawn times, the coalescing switch, how often
    a booking finish gets a probe (0: never) and which probes are late."""
    fabric = draw(st.sampled_from(_FABRICS))
    topology = topology_from_spec(fabric)
    accepted = {op: feasible_algorithms(op, topology) for op in _OPS}
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
        "probe_late": draw(st.lists(st.booleans(), min_size=1, max_size=4)),
    }


def _log_bookings(link, log):
    """Wrap ``link``'s booking methods on the instance so that every
    request's ``(start, finish)`` is appended to ``log``."""
    reserve_times = link.reserve_times
    reserve_batch = link.reserve_batch

    def logged_times(num_bytes, earliest_start):
        booking = reserve_times(num_bytes, earliest_start)
        log.append(booking)
        return booking

    def logged_batch(num_bytes, earliest_start):
        starts, finishes = reserve_batch(num_bytes, earliest_start)
        log.extend(zip(starts, finishes))
        return starts, finishes

    link.reserve_times = logged_times
    link.reserve_batch = logged_batch


def _link_state(link):
    """Bytes, busy time, FIFO tail and latest busy interval of ``link``."""
    trace = link.trace
    last = (trace._starts[-1], trace._ends[-1]) if trace._starts else None
    return link.bytes_moved, link.busy_time, link._next_free, last


def _schedule_probes(sim, fabric, case, bookings, log):
    """Probe every ``probe_every``-th of ``bookings`` at its finish.

    A probe logs every link's :func:`_link_state`.  An *early* probe is
    scheduled before the run, so it sorts before a hop queued later at its
    time; a *late* one is scheduled by a relay probe at the booking's
    midpoint, after the hop it forwards was queued, so it sorts after that
    hop.
    """
    every = case["probe_every"]
    if not every:
        return
    links = [fabric._links[dim] for dim in fabric.dimensions]

    def probe(label):
        log.append((label, sim.now, [_link_state(link) for link in links]))

    def relay(finish):
        probe("relay")
        sim.schedule_at(finish, probe, "late")

    late = case["probe_late"]
    for index, (start, finish) in enumerate(bookings[::every]):
        if late[index % len(late)]:
            sim.schedule_at((start + finish) / 2, relay, finish)
        else:
            sim.schedule_at(finish, probe, "early")


def _simulate(backend_class, case, bookings=(), log_bookings=False):
    """Probe log, per-link end state, completion times and event count of
    one case, probed at ``bookings``' finishes; with ``log_bookings``, also
    every booking's ``(start, finish)``."""
    topology = topology_from_spec(case["fabric"])
    system = make_system("ace").with_overrides(collective_algorithm=case["algorithm"])
    fabric = backend_class(topology, system.network)
    sim = Simulator()
    booked = []
    if log_bookings:
        for link in fabric._links.values():
            _log_bookings(link, booked)
    probes = []
    _schedule_probes(sim, fabric, case, bookings, probes)
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
    end = [
        (
            _link_state(link),
            link.trace._starts,
            link.trace._ends,
            [array.tolist() for array in link.trace.merged_arrays()],
        )
        for link in fabric._links.values()
    ]
    done = [handle.completed_at for handle in handles]
    return (probes, end, done, sim.events_processed), booked


def _check_lane_books_like_per_hop_events(case):
    """Probed at the per-hop walk's booking finishes, before and after the
    hops queued there, both walks show every link in the same state; their
    end states, completion times and event counts match too."""
    if case["coalesce"]:
        lane_backend, hop_backend = DetailedBackend, PerHopEventBackend
    else:
        lane_backend, hop_backend = PerMessageBackend, PerMessageHopEventBackend
    _, bookings = _simulate(hop_backend, case, log_bookings=True)
    lane, _ = _simulate(lane_backend, case, bookings)
    hop, _ = _simulate(hop_backend, case, bookings)
    assert lane == hop


@settings(max_examples=40, deadline=None)
@given(case=_contended_cases())
def test_lane_books_like_per_hop_events(case):
    _check_lane_books_like_per_hop_events(case)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(case=_contended_cases())
def test_lane_books_like_per_hop_events_deep(case):
    _check_lane_books_like_per_hop_events(case)
