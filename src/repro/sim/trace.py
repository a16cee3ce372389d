"""Busy-interval recording and utilization timelines.

The paper's Fig. 10 plots the percentage of compute / network resources in use
over the course of two training iterations, averaged over 1K-cycle windows.
:class:`IntervalTracer` records raw busy intervals as the simulation runs and
:class:`UtilizationTrace` bins them into fixed windows for reporting.

Recording is a list append or an in-place extension of the last interval
(it sits on the simulation hot path); all aggregation — merging, window
binning, busy-time queries — is vectorized with numpy, so post-processing a
run with hundreds of thousands of intervals costs
O((intervals + windows) log intervals) instead of O(intervals x windows).
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np


class IntervalTracer:
    """Records busy intervals on a single resource.

    Intervals are kept as two parallel lists of starts and ends.  A new
    interval that starts inside the last stored one (``last_start <= start
    <= last_end``) extends it in place, so a run of back-to-back requests
    is stored once.  That leaves the *union* of the recorded intervals --
    the only thing any query reads -- unchanged.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._merged: "Tuple[np.ndarray, np.ndarray] | None" = None

    def record(self, start: float, end: float) -> None:
        """Record a busy interval; zero-length intervals are ignored.

        :class:`~repro.sim.engine.HopLane` applies these rules inline to
        its resource's tracer, so a change here must be made there too.
        """
        if end <= start:
            return
        ends = self._ends
        if ends and self._starts[-1] <= start <= ends[-1]:
            if end > ends[-1]:
                ends[-1] = end
        else:
            self._starts.append(start)
            ends.append(end)
        self._merged = None

    @property
    def last_end(self) -> float:
        """End of the latest-ending recorded interval (0.0 when empty)."""
        return max(self._ends, default=0.0)

    def merged_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(starts, ends)`` of the union of recorded intervals.

        The arrays are sorted, pairwise-disjoint (touching intervals are
        merged), and cached until the next :meth:`record`.
        """
        if self._merged is not None:
            return self._merged
        if not self._starts:
            empty = np.empty(0, dtype=np.float64)
            self._merged = (empty, empty)
            return self._merged
        raw_starts = np.asarray(self._starts, dtype=np.float64)
        order = np.argsort(raw_starts, kind="stable")
        starts = raw_starts[order]
        ends = np.asarray(self._ends, dtype=np.float64)[order]
        running_end = np.maximum.accumulate(ends)
        # A new merged group begins where an interval starts strictly after
        # everything before it has ended (equal endpoints merge).
        new_group = np.empty(len(starts), dtype=bool)
        new_group[0] = True
        new_group[1:] = starts[1:] > running_end[:-1]
        group_at = np.flatnonzero(new_group)
        merged_starts = starts[group_at]
        merged_ends = np.maximum.reduceat(ends, group_at)
        self._merged = (merged_starts, merged_ends)
        return self._merged

    def busy_time(self, start: float = 0.0, end: float = float("inf")) -> float:
        """Total busy time overlapping ``[start, end)``, merging overlaps."""
        starts, ends = self.merged_arrays()
        if len(starts) == 0:
            return 0.0
        clipped = np.minimum(ends, end) - np.maximum(starts, start)
        return float(np.sum(clipped[clipped > 0.0]))


class UtilizationTrace:
    """Bins busy intervals from one or more tracers into fixed windows.

    This is the data behind the Fig. 10 timelines: each window reports the
    average fraction of the traced resources that were busy during it.
    """

    def __init__(self, window_ns: float) -> None:
        if window_ns <= 0:
            raise ValueError(f"window must be positive, got {window_ns}")
        self.window_ns = window_ns

    def utilization_series(
        self,
        tracers: Iterable[IntervalTracer],
        horizon_ns: float,
    ) -> List[Tuple[float, float]]:
        """Return ``(window_center_time, utilization)`` pairs covering ``[0, horizon_ns)``.

        The utilization of a window is the busy time of all tracers inside the
        window divided by (number of tracers x window length), i.e. "% of the
        links/engines occupied", matching the paper's definition.

        Busy time is distributed into windows in one vectorized pass over the
        union-merged intervals of every tracer: each merged interval deposits
        its start fragment, end fragment and fully-covered middle windows
        directly into the window bins, so the cost is independent of the
        (windows x intervals) product the naive per-window scan pays.
        """
        tracer_list = list(tracers)
        if horizon_ns <= 0 or not tracer_list:
            return []
        window = self.window_ns
        num_windows = int(horizon_ns // window) + (1 if horizon_ns % window else 0)
        boundaries = np.arange(num_windows + 1, dtype=np.float64) * window
        boundaries[-1] = min(horizon_ns, float(boundaries[-1]))
        widths = np.diff(boundaries)

        # Tracers are independent resources: busy time inside a window is
        # additive across them, so their merged intervals can be binned
        # together.  Clip to the horizon first (activity past the horizon
        # must not leak into the last window).
        pieces_s: List[np.ndarray] = []
        pieces_e: List[np.ndarray] = []
        for tracer in tracer_list:
            starts, ends = tracer.merged_arrays()
            if len(starts) == 0:
                continue
            keep = starts < horizon_ns
            pieces_s.append(np.minimum(starts[keep], horizon_ns))
            pieces_e.append(np.minimum(ends[keep], horizon_ns))
        bins = np.zeros(num_windows, dtype=np.float64)
        if pieces_s:
            starts = np.concatenate(pieces_s)
            ends = np.concatenate(pieces_e)
            # Window holding each interval's start / (exclusive) end.
            first = np.searchsorted(boundaries, starts, side="right") - 1
            last = np.searchsorted(boundaries, ends, side="left") - 1
            first = np.clip(first, 0, num_windows - 1)
            last = np.clip(last, 0, num_windows - 1)
            inside = first == last
            np.add.at(bins, first[inside], (ends - starts)[inside])
            spanning = ~inside
            if np.any(spanning):
                f, l = first[spanning], last[spanning]
                np.add.at(bins, f, boundaries[f + 1] - starts[spanning])
                np.add.at(bins, l, ends[spanning] - boundaries[l])
                # Fully-covered middle windows, via a running coverage count.
                coverage = np.zeros(num_windows + 1, dtype=np.float64)
                np.add.at(coverage, f + 1, 1.0)
                np.add.at(coverage, l, -1.0)
                bins += np.cumsum(coverage[:-1]) * widths

        util = np.minimum(1.0, bins / (widths * len(tracer_list)))
        centers = boundaries[:-1] + widths / 2.0
        return list(zip(centers.tolist(), util.tolist()))
