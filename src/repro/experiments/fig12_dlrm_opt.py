"""Fig. 12 — DLRM training-loop optimisation enabled by ACE's freed memory BW.

The spare memory bandwidth ACE leaves on the NPU can be spent on
workload-level optimisations.  The paper's example: dedicate one SM and
80 GB/s to performing the embedding lookup of the *next* iteration and the
embedding update of the *previous* iteration off the critical path, and issue
the forward all-to-all as soon as the early lookup finishes.  The embedding
stage then disappears from the training loop's critical path.

BaselineCompOpt barely benefits (its communication is the bottleneck), while
ACE converts the saving directly into iteration time — the paper reports
1.05x vs 1.2x improvements respectively.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.common import chunk_bytes_for
from repro.runner import SweepRunner, default_runner, training_job

FIG12_SYSTEMS = ("baseline_comp_opt", "ace")


def run_fig12(
    fast: bool = True,
    num_npus: int = 128,
    iterations: int = 2,
    systems: Sequence[str] = FIG12_SYSTEMS,
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, object]]:
    """Default vs optimised DLRM training loop for the baseline and ACE."""
    runner = runner or default_runner()
    if fast:
        num_npus = min(num_npus, 64)
    chunk = chunk_bytes_for("dlrm", fast)
    jobs = [
        training_job(
            system_name,
            "dlrm",
            num_npus=num_npus,
            iterations=iterations,
            chunk_bytes=chunk,
            overlap_embedding=overlap,
        )
        for system_name in systems
        for overlap in (False, True)
    ]
    results = iter(runner.run_values(jobs))
    rows: List[Dict[str, object]] = []
    for system_name in systems:
        default = next(results)
        optimised = next(results)
        for label, result in (("default", default), ("optimized", optimised)):
            rows.append(
                {
                    "system": result.system_name,
                    "loop": label,
                    "npus": result.num_npus,
                    "total_compute_us": result.total_compute_us,
                    "exposed_comm_us": result.exposed_comm_us,
                    "total_time_us": result.total_time_us,
                }
            )
        rows.append(
            {
                "system": default.system_name,
                "loop": "improvement",
                "npus": num_npus,
                "total_compute_us": 0.0,
                "exposed_comm_us": 0.0,
                "total_time_us": default.total_time_us / optimised.total_time_us,
            }
        )
    return rows
