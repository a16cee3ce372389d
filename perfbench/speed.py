"""Host-speed reference: a fixed event loop timed around the measured work.

The benchmark runs on a few cores of a shared host.  Other tenants' load
slows a process there by up to about 1.8 times, in spells from a few
milliseconds to tens of seconds, so two runs of the same code can differ by
a quarter.  The simulator is an interpreter-bound discrete-event loop; such
a spell stretches it and a small loop of the same kind,
:func:`reference_loop`, by about the same factor, and the mean time of that
loop over a burst of runs says how slow the host is at that moment.

``passes.py`` runs a burst of reference loops after every
:data:`INTERVAL_S` seconds of measured work, never inside a timed region.  A
measured time is scaled by :data:`REFERENCE_S` over the mean reference time
of the burst before it and the first burst after it, so it reads as host
seconds on a host where the reference loop takes :data:`REFERENCE_S`.

A warm cache read takes about a millisecond: it falls inside one spell, and
file reads and JSON parsing feel a spell differently from the event loop.
So each one follows a :func:`reference_read` of a fixed file shaped like a
cache entry, and warm times are scaled by :data:`READ_REFERENCE_S` over the
mean of those reference reads.

The references are the benchmark's own code and do not change with the
simulator: a change that makes the simulator k times slower makes every
scaled time k times larger.
"""

from __future__ import annotations

import gc
import heapq
import json
import time
from pathlib import Path
from typing import List, Tuple

#: The reference loop's fastest time on the host the bounds were set on
#: (2 vCPUs of a shared x86-64 host, CPython 3.11), so scaled times there
#: read close to unscaled host seconds when the host is quiet.
REFERENCE_S = 0.0135

#: A :func:`reference_read`'s fastest time on that host.
READ_REFERENCE_S = 0.00025

#: Seconds of measured work between two bursts.
INTERVAL_S = 1.0

#: Reference loops timed per burst.
BURST = 12


class _Link:
    """A FIFO pipe that logs its busy intervals, as the simulator's do."""

    __slots__ = ("free_at", "busy")

    def __init__(self) -> None:
        self.free_at = 0.0
        self.busy: List[Tuple[float, float]] = []

    def reserve(self, now: float, size: int) -> float:
        start = now if now > self.free_at else self.free_at
        self.free_at = end = start + size / 64.0
        self.busy.append((start, end))
        return end


def reference_loop(events: int = 20_000) -> float:
    """A fixed discrete-event run over 16 links; returns its final clock."""
    links = [_Link() for _ in range(16)]
    queue = [(0.0, seq, seq % 16) for seq in range(64)]
    heapq.heapify(queue)
    now = 0.0
    for seq in range(64, 64 + events):
        now, _, link = heapq.heappop(queue)
        end = links[link].reserve(now, 64 + seq * 2654435761 % 4096)
        heapq.heappush(queue, (end, seq, (link * 5 + seq) % 16))
    return now


def reference_document() -> str:
    """A fixed JSON text shaped like a cached training result (about 24 KB)."""
    layers = [
        {
            "name": f"layer{i}",
            "forward_ns": i * 1531.25,
            "backward_ns": i * 3062.5,
            "comm_ns": i * 771.125,
            "bytes": 4096 * i,
        }
        for i in range(130)
    ]
    result = {"layers": layers, "series": [i / 1024 for i in range(600)]}
    return json.dumps({"schema": 1, "job": {"kind": "reference"}, "result": result})


def reference_read(path: Path) -> float:
    """Read and walk :func:`reference_document` from ``path``."""
    with path.open("r", encoding="utf-8") as handle:
        entry = json.load(handle)
    layers = [tuple(layer.values()) for layer in entry["result"]["layers"]]
    return sum(layer[1] for layer in layers) + sum(entry["result"]["series"])


class SpeedProbe:
    """Bursts of reference-loop timings between pieces of measured work.

    The first burst is taken on construction.  Take :meth:`mark` before a
    piece of work, report its duration to :meth:`after`, and once the work
    that should share a scale is done, ask :meth:`scale` with the mark.
    """

    def __init__(self) -> None:
        self.bursts: List[List[float]] = []
        self.reads: List[float] = []
        self._since = 0.0
        self.burst()

    def burst(self) -> None:
        """Time :data:`BURST` reference loops, with the cyclic collector off."""
        samples = []
        gc.disable()
        try:
            for _ in range(BURST):
                start = time.perf_counter()
                reference_loop()
                samples.append(time.perf_counter() - start)
        finally:
            gc.enable()
        self.bursts.append(samples)
        self._since = 0.0

    def read(self, path: Path) -> None:
        """Time one :func:`reference_read` of ``path``."""
        start = time.perf_counter()
        reference_read(path)
        self.reads.append(time.perf_counter() - start)

    def read_scale(self) -> float:
        """Factor to the reference speed for the warm reads paired with :meth:`read`."""
        return READ_REFERENCE_S * len(self.reads) / sum(self.reads)

    def mark(self) -> int:
        """Index of the next burst, taken before a piece of measured work."""
        return len(self.bursts)

    def after(self, seconds: float) -> None:
        """Count ``seconds`` of measured work; burst once an interval is full."""
        self._since += seconds
        if self._since >= INTERVAL_S:
            self.burst()

    def scale(self, mark: int) -> float:
        """Factor to the reference speed for work that started at ``mark``.

        It uses the burst before the work and the first burst after it,
        taking that one now if none has been taken since.
        """
        if mark == len(self.bursts):
            self.burst()
        around = self.bursts[max(mark - 1, 0)] + self.bursts[mark]
        return REFERENCE_S * len(around) / sum(around)
