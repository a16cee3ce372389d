"""Compiled stage rows book what a per-chunk timeline stage books.

:meth:`~repro.training.comm.CollectiveExecutor.stage_table` prepares each
row once: the endpoint's phase cost and, on the symmetric fabric, the pipe
an on-fabric phase books and the latency its later ring steps add.  The
property drives random cells through the executor and through
:class:`oracles.ReserveStageExecutor`, which prices every chunk-phase as it
runs it (:func:`oracles.per_chunk_endpoint`), books the fabric through
``SymmetricFabric.reserve`` and reads the endpoint's capacity at every
admission round.  Both must give every pipe, endpoint resource and FSM pool
the same requests with the same answers, in the same order, and the same
completion times, memory traffic, busy intervals and event count.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from oracles import ReserveStageExecutor, feasible_algorithms, per_chunk_endpoint
from repro.collectives.base import CollectiveOp
from repro.config.presets import SYSTEM_CONFIG_NAMES, make_system
from repro.network import topology_from_spec
from repro.sim.engine import Simulator
from repro.sim.resources import BandwidthResource
from repro.training.comm import CollectiveExecutor
from repro.units import KB, MB

_FABRICS = ("torus:4x2x2", "torus2d:4x4", "ring:8", "switch:8", "fc:8")
_OPS = tuple(CollectiveOp)


def _log_uniform(low, high):
    """Integers in ``[low, high]``, each octave about as likely as another."""
    octaves = (high // low).bit_length() - 1
    return st.integers(0, octaves).flatmap(
        lambda octave: st.integers(low << octave, min((2 * low << octave) - 1, high))
    )


@st.composite
def _cells(draw):
    """A Table VI system, a fabric, an algorithm the planner accepts there,
    a chunk size, 1-4 collectives of the operations it runs, issued at drawn
    times, and the scheduling order."""
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
        "algorithm": algorithm,
        "chunk_bytes": draw(_log_uniform(16 * KB, 1 * MB)),
        "collectives": collectives,
        "scheduling": draw(st.sampled_from(["lifo", "fifo"])),
    }


def _log_requests(resource, log):
    """Wrap ``resource``'s booking method on the instance so that each
    request and its answer are appended to ``log``."""
    name = "reserve_times" if isinstance(resource, BandwidthResource) else "acquire"
    book = getattr(resource, name)

    def logged(*request):
        answer = book(*request)
        log.append((request, answer))
        return answer

    setattr(resource, name, logged)


def _booked(executor):
    """Every pipe, endpoint bandwidth resource and FSM pool of ``executor``."""
    endpoint = executor.endpoint
    resources = list(executor.fabric._pipes.values())
    resources += [
        value for value in vars(endpoint).values() if isinstance(value, BandwidthResource)
    ]
    for pool in getattr(endpoint, "_fsms", {}).values():
        if pool not in resources:
            resources.append(pool)
    return resources


def _simulate(executor_class, cell):
    """Request logs, end state, completion times and event count of one cell."""
    topology = topology_from_spec(cell["fabric"])
    system = make_system(cell["system"]).with_overrides(
        collective_algorithm=cell["algorithm"], collective_scheduling=cell["scheduling"]
    )
    endpoint = per_chunk_endpoint(system) if executor_class is ReserveStageExecutor else None
    sim = Simulator()
    executor = executor_class(
        sim, system, topology, endpoint=endpoint, chunk_bytes=cell["chunk_bytes"]
    )
    logs = {}
    for resource in _booked(executor):
        _log_requests(resource, logs.setdefault(resource.name, []))
    handles = []
    for op, issue_at, payload in cell["collectives"]:
        sim.schedule_at(
            issue_at, lambda op=op, payload=payload: handles.append(executor.issue(op, payload))
        )
    sim.run()
    assert handles and all(handle.finished for handle in handles)
    fabric = executor.fabric
    fabric.check_accounting(max(sim.now, 1.0))
    tracers = fabric.tracers() + [executor.endpoint.activity]
    end = {
        "pipes": [
            (pipe.bytes_moved, pipe.busy_time, pipe._next_free)
            for pipe in fabric._pipes.values()
        ],
        "memory": (executor.endpoint.memory_read_bytes, executor.endpoint.memory_write_bytes),
        "busy": [[array.tolist() for array in tracer.merged_arrays()] for tracer in tracers],
        "done": [handle.completed_at for handle in handles],
        "events": sim.events_processed,
    }
    return logs, end


def _check_rows_book_like_per_chunk_stages(cell):
    compiled = _simulate(CollectiveExecutor, cell)
    per_chunk = _simulate(ReserveStageExecutor, cell)
    assert compiled == per_chunk


@settings(max_examples=40, deadline=None)
@given(cell=_cells())
def test_rows_book_like_per_chunk_stages(cell):
    _check_rows_book_like_per_chunk_stages(cell)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(cell=_cells())
def test_rows_book_like_per_chunk_stages_deep(cell):
    _check_rows_book_like_per_chunk_stages(cell)
