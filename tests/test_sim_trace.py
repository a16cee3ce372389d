"""Interval tracing and utilization windows."""

import pytest

from repro.sim.trace import IntervalTracer, UtilizationTrace


def test_busy_time_merges_overlaps():
    tracer = IntervalTracer()
    tracer.record(0.0, 10.0)
    tracer.record(5.0, 15.0)
    tracer.record(20.0, 25.0)
    assert tracer.busy_time() == pytest.approx(20.0)


def test_busy_time_clipped_to_window():
    tracer = IntervalTracer()
    tracer.record(0.0, 10.0)
    assert tracer.busy_time(5.0, 8.0) == pytest.approx(3.0)
    assert tracer.busy_time(20.0, 30.0) == 0.0


def test_zero_length_intervals_ignored():
    tracer = IntervalTracer()
    tracer.record(5.0, 5.0)
    tracer.record(6.0, 4.0)
    assert tracer.busy_time() == 0.0
    assert len(tracer.merged_arrays()[0]) == 0


def test_utilization_series_windows():
    tracer = IntervalTracer()
    tracer.record(0.0, 10.0)   # first window fully busy
    tracer.record(15.0, 20.0)  # second window half busy
    trace = UtilizationTrace(window_ns=10.0)
    series = trace.utilization_series([tracer], horizon_ns=30.0)
    assert len(series) == 3
    assert series[0][1] == pytest.approx(1.0)
    assert series[1][1] == pytest.approx(0.5)
    assert series[2][1] == pytest.approx(0.0)


def test_utilization_series_multiple_tracers_average():
    busy = IntervalTracer()
    busy.record(0.0, 10.0)
    idle = IntervalTracer()
    trace = UtilizationTrace(window_ns=10.0)
    series = trace.utilization_series([busy, idle], horizon_ns=10.0)
    assert series[0][1] == pytest.approx(0.5)


def test_window_must_be_positive():
    with pytest.raises(ValueError):
        UtilizationTrace(window_ns=0.0)
