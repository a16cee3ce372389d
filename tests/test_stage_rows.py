"""The executor's chunk loop and compiled stage rows book what one event per
chunk step books.

:meth:`~repro.training.comm.CollectiveExecutor.stage_table` prepares each
row once: the endpoint's phase cost and, on the symmetric fabric, the pipe
an on-fabric phase books and the latency its later ring steps add.  The
executor runs its chunk events back to back while they are at the heap's
head, and books the pipe legs, the ACE DMA legs and the baseline's phase
legs inline.  The property drives random cells through the executor and
through :class:`oracles.EventChainExecutor`, which runs every chunk step as
its own heap event, prices every chunk-phase as it runs it
(:func:`oracles.per_chunk_endpoint`), books the fabric through
``fabric.reserve`` and every endpoint leg through ``reserve_times``, and
reads the endpoint's capacity at every admission round.

Probe events sit at the reference's booking finishes (as in
``tests/test_hop_lane.py``): an *early* probe is scheduled before the run,
so it sorts before any chunk event at its time; a *late* one is scheduled
by a relay probe at the booking's midpoint, so it sorts after the events
scheduled before the relay ran.  Each probe is a foreign event at the
heap's head, where the executor's chunk loop must stop.  At every probe
both executors must show every pipe or link, endpoint resource and FSM pool
in the same state, with the same event count and queue length; their end
states, completion times and event counts must match too.  Another
executor's chunk events are foreign as well: two executors sharing one
simulator must book as two reference executors do.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from oracles import EventChainExecutor, feasible_algorithms, per_chunk_endpoint
from repro.collectives.base import CollectiveOp
from repro.config.presets import SYSTEM_CONFIG_NAMES, make_system
from repro.network import topology_from_spec
from repro.network.hybrid import HybridBackend
from repro.network.symmetric import SymmetricFabric
from repro.sim.engine import Simulator
from repro.sim.resources import BandwidthResource, SlotResource
from repro.training.comm import CollectiveExecutor
from repro.units import KB, MB

_FABRICS = ("torus:4x2x2", "torus2d:4x4", "ring:8", "switch:8", "fc:8")
_OPS = tuple(CollectiveOp)
#: The symmetric fabric three times out of five: it is the timeline path
#: whose pipe legs the executor books inline.
_BACKENDS = ("symmetric", "symmetric", "symmetric", "detailed", "hybrid")


def _log_uniform(low, high):
    """Integers in ``[low, high]``, each octave about as likely as another."""
    octaves = (high // low).bit_length() - 1
    return st.integers(0, octaves).flatmap(
        lambda octave: st.integers(low << octave, min((2 * low << octave) - 1, high))
    )


@st.composite
def _cells(draw):
    """A Table VI system, a fabric and a network backend, an algorithm the
    planner accepts there, a chunk size, 1-4 collectives of the operations
    it runs, issued at drawn times, the scheduling order, how often a
    booking finish gets a probe (0: never) and which probes are late."""
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
                _log_uniform(1 * KB, 2 * MB),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return {
        "system": draw(st.sampled_from(SYSTEM_CONFIG_NAMES)),
        "fabric": fabric,
        "backend": draw(st.sampled_from(_BACKENDS)),
        "algorithm": algorithm,
        "chunk_bytes": draw(_log_uniform(16 * KB, 1 * MB)),
        "collectives": collectives,
        "scheduling": draw(st.sampled_from(["lifo", "fifo"])),
        "probe_every": draw(st.integers(0, 3)),
        "probe_late": draw(st.lists(st.booleans(), min_size=1, max_size=4)),
    }


def _fabric_resources(fabric):
    """The pipes or links of ``fabric``."""
    if isinstance(fabric, HybridBackend):
        return _fabric_resources(fabric._detailed) + _fabric_resources(fabric._pipes)
    if isinstance(fabric, SymmetricFabric):
        return list(fabric._pipes.values())
    return list(fabric._links.values())


def _resources(executor):
    """Every pipe or link, endpoint bandwidth resource and FSM pool of ``executor``."""
    endpoint = executor.endpoint
    resources = _fabric_resources(executor.fabric)
    resources += [
        value for value in vars(endpoint).values() if isinstance(value, BandwidthResource)
    ]
    for pool in getattr(endpoint, "_fsms", {}).values():
        if pool not in resources:
            resources.append(pool)
    return resources


def _state(resource):
    """Bytes, busy time, FIFO tail and latest busy interval of a bandwidth
    resource; the slot release times of an FSM pool."""
    if isinstance(resource, SlotResource):
        return tuple(resource._release_times)
    trace = resource.trace
    last = (trace._starts[-1], trace._ends[-1]) if trace is not None and trace._starts else None
    return resource.bytes_moved, resource.busy_time, resource._next_free, last


def _log_bookings(resource, log):
    """Wrap ``resource``'s booking methods on the instance so that every
    booking's ``(start, finish)`` is appended to ``log``."""
    if isinstance(resource, SlotResource):
        acquire = resource.acquire

        def logged_acquire(earliest_start, duration):
            answer = acquire(earliest_start, duration)
            log.append(answer[1:])
            return answer

        resource.acquire = logged_acquire
        return
    reserve_times = resource.reserve_times
    reserve_batch = resource.reserve_batch

    def logged_times(num_bytes, earliest_start):
        booking = reserve_times(num_bytes, earliest_start)
        log.append(booking)
        return booking

    def logged_batch(num_bytes, earliest_start):
        starts, finishes = reserve_batch(num_bytes, earliest_start)
        log.extend(zip(starts, finishes))
        return starts, finishes

    resource.reserve_times = logged_times
    resource.reserve_batch = logged_batch


def _schedule_probes(sim, resources, cell, bookings, log):
    """Probe every ``probe_every``-th of ``bookings`` at its finish; each
    probe logs the clock, the event count, the queue length and every
    resource's :func:`_state`."""
    every = cell["probe_every"]
    if not every:
        return

    def probe(label):
        log.append(
            (
                label,
                sim.now,
                sim.events_processed,
                sim.pending_events,
                [_state(resource) for resource in resources],
            )
        )

    def relay(finish):
        probe("relay")
        sim.schedule_at(finish, probe, "late")

    late = cell["probe_late"]
    for index, (start, finish) in enumerate(bookings[::every]):
        if late[index % len(late)]:
            sim.schedule_at((start + finish) / 2, relay, finish)
        else:
            sim.schedule_at(finish, probe, "early")


def _simulate(executor_class, cell, bookings=(), log_bookings=False):
    """Probe log, end state, completion times and event count of one cell,
    probed at ``bookings``' finishes; with ``log_bookings``, also every
    booking's ``(start, finish)``."""
    topology = topology_from_spec(cell["fabric"])
    system = make_system(cell["system"]).with_overrides(
        collective_algorithm=cell["algorithm"],
        collective_scheduling=cell["scheduling"],
        network_backend=cell["backend"],
    )
    endpoint = per_chunk_endpoint(system) if executor_class is EventChainExecutor else None
    sim = Simulator()
    executor = executor_class(
        sim, system, topology, endpoint=endpoint, chunk_bytes=cell["chunk_bytes"]
    )
    resources = _resources(executor)
    booked = []
    if log_bookings:
        for resource in resources:
            _log_bookings(resource, booked)
    probes = []
    _schedule_probes(sim, resources, cell, bookings, probes)
    handles = []
    for op, issue_at, payload in cell["collectives"]:
        sim.schedule_at(
            issue_at, lambda op=op, payload=payload: handles.append(executor.issue(op, payload))
        )
    sim.run()
    assert handles and all(handle.finished for handle in handles)
    fabric = executor.fabric
    fabric.check_accounting(max(sim.now, 1.0))
    tracers = [
        resource.trace
        for resource in resources
        if isinstance(resource, BandwidthResource) and resource.trace is not None
    ]
    tracers.append(executor.endpoint.activity)
    end = {
        "resources": [_state(resource) for resource in resources],
        "memory": (executor.endpoint.memory_read_bytes, executor.endpoint.memory_write_bytes),
        "intervals": [(tracer._starts, tracer._ends) for tracer in tracers],
        "busy": [[array.tolist() for array in tracer.merged_arrays()] for tracer in tracers],
        "done": [handle.completed_at for handle in handles],
        "events": sim.events_processed,
    }
    return (probes, end), booked


def _check_rows_book_like_per_chunk_stages(cell):
    _, bookings = _simulate(EventChainExecutor, cell, log_bookings=True)
    assert bookings
    loop, _ = _simulate(CollectiveExecutor, cell, bookings)
    chain, _ = _simulate(EventChainExecutor, cell, bookings)
    assert loop == chain


@settings(max_examples=40, deadline=None)
@given(cell=_cells())
def test_rows_book_like_per_chunk_stages(cell):
    _check_rows_book_like_per_chunk_stages(cell)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(cell=_cells())
def test_rows_book_like_per_chunk_stages_deep(cell):
    _check_rows_book_like_per_chunk_stages(cell)


def _two_executors(executor_class):
    """Completion times, end states and event count of an ACE and a baseline
    executor sharing one simulator, each issuing two collectives at once."""
    topology = topology_from_spec("torus:4x2x2")
    sim = Simulator()
    executors = []
    for name in ("ace", "baseline_comm_opt"):
        system = make_system(name).with_overrides(network_backend="symmetric")
        endpoint = per_chunk_endpoint(system) if executor_class is EventChainExecutor else None
        executors.append(
            executor_class(sim, system, topology, endpoint=endpoint, chunk_bytes=64 * KB)
        )
    handles = []
    for executor in executors:
        for op in (CollectiveOp.ALL_REDUCE, CollectiveOp.ALL_GATHER):
            sim.schedule_at(
                0.0, lambda executor=executor, op=op: handles.append(executor.issue(op, 1 * MB))
            )
    sim.run()
    states = [[_state(resource) for resource in _resources(executor)] for executor in executors]
    return [handle.completed_at for handle in handles], states, sim.events_processed


def test_an_executor_runs_only_its_own_chunk_events():
    # The two executors' chunk events interleave at the heap's head; each
    # loop must stop at the other's.
    assert _two_executors(CollectiveExecutor) == _two_executors(EventChainExecutor)
