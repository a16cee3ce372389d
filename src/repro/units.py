"""Unit helpers and conversion constants.

The simulator uses a small, consistent set of units everywhere:

* **time** — nanoseconds (``float``).  One simulated nanosecond is the base
  tick; helper constants convert to microseconds and seconds.
* **data** — bytes (``int`` or ``float`` when fractional sizes appear in
  analytic models).
* **bandwidth** — GB/s.  Because 1 GB/s equals exactly one byte per
  nanosecond, ``bytes / bandwidth_GBps`` yields nanoseconds directly, which
  keeps the hot paths free of conversion factors.
* **compute** — FLOPs, with throughput expressed in TFLOP/s.

These conventions mirror the parameters of Table V in the paper (link
bandwidths in GB/s, link latencies in cycles of a 1245 MHz clock).
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Data sizes
# ---------------------------------------------------------------------------

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

# ---------------------------------------------------------------------------
# Time (base unit: nanosecond)
# ---------------------------------------------------------------------------

US = 1_000.0
SECOND = 1_000_000_000.0

# ---------------------------------------------------------------------------
# Bandwidth / compute
# ---------------------------------------------------------------------------

TERA = 1e12


def cycles_to_ns(cycles: float, frequency_mhz: float) -> float:
    """Convert a cycle count at ``frequency_mhz`` to nanoseconds."""
    if frequency_mhz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_mhz}")
    return cycles * 1e3 / frequency_mhz


def ns_to_us(time_ns: float) -> float:
    """Convert nanoseconds to microseconds."""
    return time_ns / US
