"""Fig. 6 — network bandwidth utilization vs #SMs used for communication.

A single 64 MB all-reduce is driven through the baseline endpoint while the
number of SMs running the collective kernels is swept (all memory bandwidth is
available to communication, as in the paper).  Each SM can stream roughly
80 GB/s between memory and the AFI, so ~6 SMs are enough to supply the
~450 GB/s of memory reads the network drive requires — the paper's
justification for the BaselineCommOpt allocation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.bandwidth import sm_sweep
from repro.experiments.common import topology_for
from repro.runner import SweepRunner
from repro.units import KB, MB

#: SM-count points of Fig. 6 (expressed as absolute counts out of 80).
PAPER_SM_POINTS = (1, 2, 3, 4, 5, 6, 8, 16, 64)
FAST_SM_POINTS = (1, 2, 4, 6, 16)


def run_fig6(
    fast: bool = True,
    sizes: Sequence[int] = (16, 64),
    payload_bytes: int = 64 * MB,
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, object]]:
    """Run the SM sweep for each platform size."""
    points = FAST_SM_POINTS if fast else PAPER_SM_POINTS
    chunk = 256 * KB if fast else 64 * KB
    rows: List[Dict[str, object]] = []
    for num_npus in sizes:
        topology = topology_for(num_npus)
        rows.extend(
            sm_sweep(
                topology,
                list(points),
                payload_bytes=payload_bytes,
                chunk_bytes=chunk,
                runner=runner,
            )
        )
    return rows
