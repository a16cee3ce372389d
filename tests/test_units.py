"""Unit-conversion helpers."""

import pytest

from repro import units


def test_cycles_to_ns():
    assert units.cycles_to_ns(1245, 1245.0) == pytest.approx(1000.0)
    # Table V: a 500-cycle inter-package hop at 1245 MHz is ~402 ns.
    assert units.cycles_to_ns(500, 1245.0) == pytest.approx(401.6, rel=1e-3)


def test_cycles_rejects_bad_frequency():
    with pytest.raises(ValueError):
        units.cycles_to_ns(10, 0)
    with pytest.raises(ValueError):
        units.cycles_to_ns(10, -1)


def test_time_conversions():
    assert units.ns_to_us(1500.0) == pytest.approx(1.5)
    assert units.SECOND == 1e3 * units.US * 1e3


def test_data_size_constants():
    assert units.MB == 1024 * units.KB
    assert units.GB == 1024 * units.MB
