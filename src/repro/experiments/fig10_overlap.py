"""Fig. 10 — compute / communication overlap timelines.

The paper plots, for two training iterations on a 4x8x4 (128-NPU) platform,
the windowed compute and network utilization of BaselineCommOpt,
BaselineCompOpt, ACE and Ideal for each workload.  This harness produces the
same data: a windowed utilization series per (system, workload) plus the
summary statistics the paper quotes in the text (exposed-communication share
of the iteration time and the fraction of the ideal system's performance each
configuration reaches).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.common import chunk_bytes_for
from repro.runner import SweepRunner, default_runner, training_job
from repro.training.results import TrainingResult
from repro.units import left_sum

#: Systems plotted in Fig. 10 (columns a-d).
FIG10_SYSTEMS = ("baseline_comm_opt", "baseline_comp_opt", "ace", "ideal")


def run_fig10(
    fast: bool = True,
    workloads: Sequence[str] = ("resnet50", "gnmt", "dlrm"),
    num_npus: int = 128,
    iterations: int = 2,
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, object]]:
    """Summary rows (one per system x workload) of the Fig. 10 timelines."""
    runner = runner or default_runner()
    if fast:
        num_npus = min(num_npus, 64)
        workloads = tuple(workloads)[:2] if len(workloads) > 2 else workloads
    keys = [
        (workload_name, system_name)
        for workload_name in workloads
        for system_name in FIG10_SYSTEMS
    ]
    jobs = [
        training_job(
            system_name,
            workload_name,
            num_npus=num_npus,
            iterations=iterations,
            chunk_bytes=chunk_bytes_for(workload_name, fast),
        )
        for workload_name, system_name in keys
    ]
    results: Dict[tuple, TrainingResult] = dict(zip(keys, runner.run_values(jobs)))
    rows: List[Dict[str, object]] = []
    for (workload_name, system_name), result in results.items():
        ideal = results[(workload_name, "ideal")]
        mean_net_util = (
            left_sum(u for _, u in result.network_utilization_series)
            / max(1, len(result.network_utilization_series))
        )
        mean_compute_util = (
            left_sum(u for _, u in result.compute_utilization_series)
            / max(1, len(result.compute_utilization_series))
        )
        rows.append(
            {
                "workload": workload_name,
                "system": result.system_name,
                "npus": result.num_npus,
                "iteration_time_us": result.iteration_time_us,
                "exposed_comm_pct": 100.0 * result.exposed_comm_fraction,
                "mean_compute_util": mean_compute_util,
                "mean_network_util": mean_net_util,
                "fraction_of_ideal": result.fraction_of_ideal(ideal),
                "timeline_windows": len(result.network_utilization_series),
            }
        )
    return rows
