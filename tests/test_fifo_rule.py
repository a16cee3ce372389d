"""One FIFO booking rule for every path that books a bandwidth leg per request.

:meth:`~repro.sim.resources.BandwidthResource.reserve_times` is the
reference: start at the later of the request and the FIFO tail, add
bytes / bandwidth, accumulate busy time and bytes, merge the busy interval
into the tracer, and finish one latency after serialising.  The property
drives the same random request sequences through the reference and through
each path that must book exactly what it would: ``BandwidthResource.reserve``,
``AceEndpoint.ingress`` and ``egress`` (a DMA books its engine, the NPU-AFI
bus and an HBM channel inline) and ``BaselineEndpoint.process_phase`` (its
HBM read channel, comm SMs and bus, inline).  Each path's legs are compared
with twin resources booked through ``reserve_times``: the same answers and,
after every request, the same FIFO tails, busy time, bytes moved, tracer
lists and merged intervals.

The executor's pipe leg is held to the same rule by
``tests/test_stage_rows.py`` and the detailed backend's hop lanes by
``tests/test_hop_lane.py``.  ``reserve_batch`` is not: it adds a batch's
busy time and bytes as one sum.
"""

from __future__ import annotations

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.config.presets import make_system
from repro.endpoint import AceEndpoint, BaselineEndpoint
from repro.errors import ResourceError
from repro.sim.resources import BandwidthResource
from repro.sim.trace import IntervalTracer

_TAIL = 2.0**53
#: Request times: small, equal (a few values recur), and at or past
#: 2^53 ns, where a tail absorbs a serialization of a few bytes.
_TIMES = st.one_of(
    st.sampled_from([0.0, 0.0, 10.0, 100.0, _TAIL, _TAIL + 2.0, 2.0 * _TAIL]),
    st.floats(0.0, 1e7, allow_nan=False),
)
_BYTES = st.one_of(
    st.just(0.0),
    st.sampled_from([0.5, 1.0, 3.0]),
    st.integers(1, 1 << 22).map(float),
    st.floats(0.0, 1e9, allow_nan=False),
)
#: ``(bandwidth, latency, traced)`` of one resource.
_LEG = st.tuples(
    st.sampled_from([0.5, 1.0, 3.0, 50.0, 128.0, 400.0]),
    st.sampled_from([0.0, 0.1, 10.0, 25.0]),
    st.booleans(),
)
_ACE_LEGS = ("_tx_dma", "_rx_dma", "_bus", "_hbm_read", "_hbm_write")
_BASELINE_LEGS = ("_hbm_read", "_sm_pipe", "_bus")


def _resource(name, leg):
    bandwidth, latency, traced = leg
    return BandwidthResource(
        name, bandwidth, latency, trace=IntervalTracer(name) if traced else None
    )


def _twin(resource):
    """A fresh resource with ``resource``'s name, parameters and tracing."""
    return _resource(
        resource.name, (resource.bandwidth_gbps, resource.latency_ns, resource.trace is not None)
    )


def _state(resource):
    """FIFO tail, busy time, bytes moved, tracer lists and merged intervals
    (merging caches them, so the next booking must drop the cache)."""
    trace = resource.trace
    intervals = None
    if trace is not None:
        merged = [array.tolist() for array in trace.merged_arrays()]
        intervals = (list(trace._starts), list(trace._ends), merged)
    return resource._next_free, resource.busy_time, resource.bytes_moved, intervals


def _latest(twins, num_bytes, time):
    """Book ``twins`` in order through ``reserve_times``; the latest finish
    wins, compared in order as the paths compare."""
    finish = None
    for twin in twins:
        leg = twin.reserve_times(num_bytes, time)[1]
        if finish is None or leg > finish:
            finish = leg
    return finish


def _with_legs(endpoint, names, legs):
    """``endpoint`` with the resources ``names`` rebuilt at the drawn parameters."""
    for name, leg in zip(names, legs):
        setattr(endpoint, name, _resource(getattr(endpoint, name).name, leg))
    return endpoint


def _paths(legs):
    """Path name -> ``(book, reference, [(booked resource, twin)])``."""
    paths = {}
    pipe = _resource("pipe", legs[0])
    twin = _twin(pipe)
    paths["reserve"] = (
        lambda num_bytes, time: pipe.reserve(num_bytes, time)[:2],
        twin.reserve_times,
        [(pipe, twin)],
    )
    for direction, engine, channel in (
        ("ingress", "_tx_dma", "_hbm_read"),
        ("egress", "_rx_dma", "_hbm_write"),
    ):
        ace = _with_legs(AceEndpoint(make_system("ace")), _ACE_LEGS, legs)
        booked = [getattr(ace, name) for name in (engine, "_bus", channel)]
        twins = [_twin(resource) for resource in booked]
        paths[direction] = (
            getattr(ace, direction),
            lambda num_bytes, time, twins=twins: _latest(twins, num_bytes, time),
            list(zip(booked, twins)),
        )
    baseline = _with_legs(BaselineEndpoint(make_system("baseline_comm_opt")), _BASELINE_LEGS, legs)
    booked = [getattr(baseline, name) for name in _BASELINE_LEGS]
    twins = [_twin(resource) for resource in booked]

    def reference_phase(num_bytes, time):
        # A phase that reads nothing books nothing.
        finish = _latest(twins, num_bytes, time) if num_bytes > 0 else time
        return finish + BaselineEndpoint.PHASE_SOFTWARE_LATENCY_NS

    paths["process_phase"] = (
        lambda num_bytes, time: baseline.process_phase((num_bytes, num_bytes, 0.0), time),
        reference_phase,
        list(zip(booked, twins)),
    )
    return paths


@settings(max_examples=100, deadline=None)
@given(
    legs=st.lists(_LEG, min_size=5, max_size=5),
    requests=st.lists(st.tuples(_BYTES, _TIMES), min_size=1, max_size=25),
)
def test_every_path_books_like_reserve_times(legs, requests):
    for name, (book, reference, pairs) in _paths(legs).items():
        for num_bytes, time in requests:
            assert book(num_bytes, time) == reference(num_bytes, time), name
            for booked, twin in pairs:
                assert _state(booked) == _state(twin), (name, booked.name)


def test_an_absorbed_serialization_is_busy_time_without_an_interval():
    """The sequences' corner, spelled out: at a 2^53 ns tail a 1-byte DMA
    adds busy time and bytes to every leg but no busy interval."""
    assert _TAIL + 1.0 == _TAIL
    ace = _with_legs(AceEndpoint(make_system("ace")), _ACE_LEGS, [(1.0, 0.0, True)] * 5)
    assert ace.ingress(1.0, _TAIL) == _TAIL
    for leg in (ace._tx_dma, ace._bus, ace._hbm_read):
        assert (leg.busy_time, leg.bytes_moved, leg.trace._starts) == (1.0, 1.0, [])


def _bad_path(path):
    """``(resource name, resources, book)`` of one path on fresh resources."""
    if path in ("reserve_times", "reserve"):
        pipe = BandwidthResource("pipe", 1.0)
        return "pipe", [pipe], getattr(pipe, path)
    if path in ("ingress", "egress"):
        ace = AceEndpoint(make_system("ace"))
        name = "dma[ace-tx]" if path == "ingress" else "dma[ace-rx]"
        return name, [getattr(ace, leg) for leg in _ACE_LEGS], getattr(ace, path)
    baseline = BaselineEndpoint(make_system("baseline_comm_opt"))
    return (
        "hbm[comm].read",
        [getattr(baseline, leg) for leg in _BASELINE_LEGS],
        lambda num_bytes, time: baseline.process_phase((num_bytes, num_bytes, 0.0), time),
    )


@pytest.mark.parametrize("num_bytes", (-1.0, math.nan), ids=("negative", "nan"))
@pytest.mark.parametrize("path", ("reserve_times", "reserve", "ingress", "egress", "process_phase"))
def test_negative_or_nan_bytes_raise_naming_the_resource(path, num_bytes):
    name, resources, book = _bad_path(path)
    with pytest.raises(ResourceError, match=rf"^{re.escape(name)}: cannot transfer"):
        book(num_bytes, 5.0)
    # Nothing was booked.
    assert all(
        (resource._next_free, resource.busy_time, resource.bytes_moved) == (0.0, 0.0, 0.0)
        for resource in resources
    )


def test_a_bus_leg_of_negative_bytes_names_the_bus():
    baseline = BaselineEndpoint(make_system("baseline_comm_opt"))
    with pytest.raises(ResourceError, match=r"^bus\[npu-afi\]: cannot transfer -1.0 bytes"):
        baseline.process_phase((10.0, -1.0, 0.0), 0.0)
