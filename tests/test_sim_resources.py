"""Bandwidth and slot resources."""

import math

import pytest

from repro.errors import ResourceError
from repro.sim.engine import Simulator
from repro.sim.resources import BandwidthResource, SlotResource
from repro.sim.trace import IntervalTracer


class TestBandwidthResource:
    def test_serialization_time(self):
        pipe = BandwidthResource("p", bandwidth_gbps=100.0)
        r = pipe.reserve(1000.0, earliest_start=0.0)
        assert r.start == 0.0
        assert r.finish == pytest.approx(10.0)

    def test_latency_added_to_finish_not_occupancy(self):
        pipe = BandwidthResource("p", bandwidth_gbps=100.0, latency_ns=5.0)
        first = pipe.reserve(1000.0, 0.0)
        second = pipe.reserve(1000.0, 0.0)
        assert first.finish == pytest.approx(15.0)
        # The second transfer starts when the first finishes serializing (10),
        # not when its latency elapses (15).
        assert second.start == pytest.approx(10.0)
        assert second.finish == pytest.approx(25.0)

    def test_fifo_queuing(self):
        pipe = BandwidthResource("p", bandwidth_gbps=1.0)
        a = pipe.reserve(100.0, 0.0)
        b = pipe.reserve(50.0, 0.0)
        assert a.finish == pytest.approx(100.0)
        assert b.start == pytest.approx(100.0)
        assert b.finish == pytest.approx(150.0)

    def test_idle_gap_respected(self):
        pipe = BandwidthResource("p", bandwidth_gbps=1.0)
        pipe.reserve(10.0, 0.0)
        late = pipe.reserve(10.0, 100.0)
        assert late.start == pytest.approx(100.0)

    def test_statistics(self):
        pipe = BandwidthResource("p", bandwidth_gbps=2.0)
        pipe.reserve(100.0, 0.0)
        pipe.reserve(100.0, 0.0)
        assert pipe.bytes_moved == pytest.approx(200.0)
        assert pipe.busy_time == pytest.approx(100.0)
        assert pipe.requests == 2
        assert pipe.utilization(200.0) == pytest.approx(0.5)
        assert pipe.achieved_bandwidth_gbps(100.0) == pytest.approx(2.0)

    def test_tracer_records_busy_intervals(self):
        tracer = IntervalTracer("t")
        pipe = BandwidthResource("p", bandwidth_gbps=1.0, trace=tracer)
        pipe.reserve(10.0, 0.0)
        pipe.reserve(10.0, 50.0)
        assert tracer.busy_time(0.0, 100.0) == pytest.approx(20.0)

    def test_invalid_parameters(self):
        with pytest.raises(ResourceError):
            BandwidthResource("p", bandwidth_gbps=0.0)
        with pytest.raises(ResourceError):
            BandwidthResource("p", bandwidth_gbps=1.0, latency_ns=-1.0)
        pipe = BandwidthResource("p", bandwidth_gbps=1.0)
        with pytest.raises(ResourceError):
            pipe.reserve(-1.0, 0.0)

    def test_event_mode_transfer(self):
        sim = Simulator()
        pipe = BandwidthResource("p", bandwidth_gbps=1.0)
        finished = []
        pipe.transfer(sim, 42.0, lambda r: finished.append(r.finish))
        sim.run()
        assert finished == [pytest.approx(42.0)]

    def test_reset(self):
        pipe = BandwidthResource("p", bandwidth_gbps=1.0)
        pipe.reserve(10.0, 0.0)
        pipe.reset()
        assert pipe.busy_time == 0.0
        assert pipe.bytes_moved == 0.0
        assert pipe.next_free == 0.0

    def test_queuing_delay_reported(self):
        pipe = BandwidthResource("p", bandwidth_gbps=1.0)
        pipe.reserve(100.0, 0.0)
        queued = pipe.reserve(10.0, 0.0)
        assert queued.queuing_delay == pytest.approx(100.0)

    def test_reservation_is_immutable(self):
        reservation = BandwidthResource("p", bandwidth_gbps=1.0).reserve(10.0, 5.0)
        assert (reservation.duration, reservation.requested) == (10.0, 5.0)
        for name in ("start", "finish", "num_bytes", "requested"):
            with pytest.raises(AttributeError):
                setattr(reservation, name, 0.0)

    def test_back_to_back_requests_keep_one_trace_interval_per_busy_run(self):
        tracer = IntervalTracer("t")
        pipe = BandwidthResource("p", bandwidth_gbps=1.0, latency_ns=5.0, trace=tracer)
        for _ in range(5):
            pipe.reserve(10.0, 0.0)  # queued back to back: busy [0, 50)
        pipe.reserve(10.0, 100.0)  # after an idle gap: [100, 110)
        pipe.reserve(10.0, 105.0)  # queued behind it: [110, 120)
        pipe.reserve(0.0, 200.0)  # zero bytes: no busy time at all
        # White-box: the tracer stores one interval per busy run.
        assert list(zip(tracer._starts, tracer._ends)) == [(0.0, 50.0), (100.0, 120.0)]
        assert tracer.busy_time() == 70.0

    @pytest.mark.parametrize(
        "book",
        [
            lambda pipe, size: pipe.reserve(size, 0.0),
            lambda pipe, size: pipe.reserve_times(size, 0.0),
            lambda pipe, size: pipe.reserve_batch([1.0, size], [0.0, 0.0]),
            lambda pipe, size: pipe.reserve_batch([1.0] * 40 + [size], [0.0] * 41),
        ],
        ids=["reserve", "reserve_times", "reserve_batch-small", "reserve_batch-vectorized"],
    )
    def test_nan_bytes_rejected_without_booking(self, book):
        pipe = BandwidthResource("p", bandwidth_gbps=1.0)
        pipe.reserve(10.0, 0.0)
        with pytest.raises(ResourceError):
            book(pipe, math.nan)
        # Not poisoned: the next request still queues behind the first.
        assert (pipe.next_free, pipe.busy_time) == (10.0, 10.0)
        assert pipe.reserve_times(10.0, 0.0) == (10.0, 20.0)

    @pytest.mark.parametrize("latency_ns, bandwidth_gbps", [(0.0, math.nan), (math.nan, 1.0)])
    def test_nan_parameters_rejected(self, latency_ns, bandwidth_gbps):
        with pytest.raises(ResourceError):
            BandwidthResource("p", bandwidth_gbps=bandwidth_gbps, latency_ns=latency_ns)


class TestSlotResource:
    def test_parallel_slots(self):
        slots = SlotResource("s", 2)
        _, s1, f1 = slots.acquire(0.0, 10.0)
        _, s2, f2 = slots.acquire(0.0, 10.0)
        _, s3, f3 = slots.acquire(0.0, 10.0)
        assert (s1, s2) == (0.0, 0.0)
        assert s3 == pytest.approx(10.0)
        assert f3 == pytest.approx(20.0)

    def test_earliest_available(self):
        slots = SlotResource("s", 1)
        slots.acquire(0.0, 10.0)
        assert slots.earliest_available(0.0) == pytest.approx(10.0)
        assert slots.earliest_available(20.0) == pytest.approx(20.0)

    def test_utilization(self):
        slots = SlotResource("s", 2)
        slots.acquire(0.0, 10.0)
        slots.acquire(0.0, 10.0)
        assert slots.utilization(10.0) == pytest.approx(1.0)
        assert slots.utilization(20.0) == pytest.approx(0.5)

    def test_invalid(self):
        with pytest.raises(ResourceError):
            SlotResource("s", 0)
        slots = SlotResource("s", 1)
        with pytest.raises(ResourceError):
            slots.acquire(0.0, -1.0)

    def test_nan_duration_rejected_without_booking(self):
        slots = SlotResource("s", 2)
        slots.acquire(0.0, 10.0)
        with pytest.raises(ResourceError):
            slots.acquire(0.0, math.nan)
        # Slot 1 is still the free one; slot 0 stays busy until t=10.
        assert slots.acquire(0.0, 5.0) == (1, 0.0, 5.0)
        assert slots.acquire(0.0, 5.0) == (1, 5.0, 10.0)

    def test_reset(self):
        slots = SlotResource("s", 1)
        slots.acquire(0.0, 10.0)
        slots.reset()
        assert slots.busy_time == 0.0
        assert slots.earliest_available(0.0) == 0.0
