"""Fig. 11 — scaling study: compute vs exposed communication, and speedups.

Fig. 11a breaks every (workload, platform size, system) point into total
computation time and exposed communication time for two training iterations;
Fig. 11b reports ACE's speedup over each baseline at every platform size.

The headline shapes being reproduced:

* exposed communication grows with platform size (more ring steps, slower
  inter-package phases),
* BaselineCompOpt beats BaselineCommOpt (compute savings beat communication
  savings when communication can be overlapped),
* ACE tracks the ideal system closely (≈90 % on average in the paper) and its
  advantage over the baselines grows with platform size.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.speedup import compute_speedups
from repro.config.presets import SYSTEM_CONFIG_NAMES
from repro.experiments.common import run_grid
from repro.runner import SweepRunner
from repro.training.results import TrainingResult

PAPER_SIZES = (16, 32, 64, 128)
FAST_SIZES = (16, 64)
FAST_WORKLOADS = ("resnet50", "dlrm")
PAPER_WORKLOADS = ("resnet50", "gnmt", "dlrm")


def run_fig11(
    fast: bool = True,
    systems: Sequence[str] = SYSTEM_CONFIG_NAMES,
    workloads: Sequence[str] = None,
    sizes: Sequence[int] = None,
    iterations: int = 2,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, List[Dict[str, object]]]:
    """Run the scaling grid; returns {'breakdown': fig11a rows, 'speedups': fig11b rows}."""
    workloads = workloads or (FAST_WORKLOADS if fast else PAPER_WORKLOADS)
    sizes = sizes or (FAST_SIZES if fast else PAPER_SIZES)
    results: List[TrainingResult] = run_grid(
        systems=systems,
        workloads=workloads,
        sizes=sizes,
        iterations=iterations,
        fast=fast,
        runner=runner,
    )
    breakdown_rows = [
        {
            "workload": r.workload_name,
            "npus": r.num_npus,
            "system": r.system_name,
            "total_compute_us": r.total_compute_us,
            "exposed_comm_us": r.exposed_comm_us,
            "total_time_us": r.total_time_us,
            "achieved_net_bw_gbps": r.achieved_network_bandwidth_gbps,
        }
        for r in results
    ]
    speedup_rows: List[Dict[str, object]] = []
    for table in compute_speedups(results):
        row: Dict[str, object] = {
            "workload": table.workload,
            "npus": table.num_npus,
            "ace_iteration_us": table.ace_iteration_time_ns / 1e3,
        }
        for system_name, speedup in sorted(table.speedups.items()):
            row[f"speedup_vs_{system_name}"] = speedup
        if table.fraction_of_ideal:
            row["ace_fraction_of_ideal"] = table.fraction_of_ideal.get("ACE", 0.0)
        row["speedup_vs_best_baseline"] = table.best_baseline_speedup()
        speedup_rows.append(row)
    return {"breakdown": breakdown_rows, "speedups": speedup_rows}
