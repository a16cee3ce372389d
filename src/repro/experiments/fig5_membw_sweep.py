"""Fig. 5 — network bandwidth utilization vs memory BW available for comms.

A single 64 MB all-reduce is driven through 16- and 64-NPU platforms while the
memory bandwidth available to the communication path is swept.  The paper's
headline observations, all reproduced here:

* the ideal system tops out around ~300 GB/s of the 500 GB/s injection
  bandwidth (the inter-package rings are the constraint),
* the baseline needs roughly 450 GB/s of memory read bandwidth to get within
  90 % of that ceiling (it reads ~1.5 bytes per byte injected),
* ACE needs only ~128 GB/s (≈3.5x less) because chunks are cached in its SRAM.

The module also exposes the Section VI-A analytical accounting used to sanity
check the measured sweep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.bandwidth import analytical_memory_traffic, memory_bw_sweep
from repro.experiments.common import topology_for
from repro.runner import SweepRunner
from repro.units import KB, MB

#: Memory bandwidths swept in the paper's Fig. 5 (GB/s).
PAPER_MEMORY_BW_POINTS = (32.0, 64.0, 96.0, 128.0, 192.0, 256.0, 350.0, 450.0, 600.0, 900.0)
FAST_MEMORY_BW_POINTS = (64.0, 128.0, 256.0, 450.0, 900.0)


def run_fig5(
    fast: bool = True,
    sizes: Sequence[int] = (16, 64),
    payload_bytes: int = 64 * MB,
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, object]]:
    """Run the memory-bandwidth sweep for each platform size."""
    points = FAST_MEMORY_BW_POINTS if fast else PAPER_MEMORY_BW_POINTS
    chunk = 256 * KB if fast else 64 * KB
    rows: List[Dict[str, object]] = []
    for num_npus in sizes:
        topology = topology_for(num_npus)
        rows.extend(
            memory_bw_sweep(
                topology,
                list(points),
                payload_bytes=payload_bytes,
                chunk_bytes=chunk,
                runner=runner,
            )
        )
    return rows


def run_section6a_analysis(sizes: Sequence[int] = (16, 64, 128)) -> List[Dict[str, object]]:
    """Section VI-A analytical memory-traffic accounting per platform size."""
    rows = []
    for num_npus in sizes:
        req = analytical_memory_traffic(topology_for(num_npus))
        rows.append(
            {
                "npus": num_npus,
                "topology": req.topology_name,
                "injected_per_payload_byte": req.injected_bytes_per_payload_byte,
                "baseline_reads_per_injected_byte": req.baseline_reads_per_injected_byte,
                "ace_reads_per_injected_byte": req.ace_reads_per_injected_byte,
                "memory_bw_reduction": req.memory_bw_reduction,
            }
        )
    return rows
