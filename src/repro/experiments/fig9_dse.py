"""Fig. 9 — ACE design-space exploration (9a) and utilization (9b).

Fig. 9a sweeps the two ACE parameters with the largest area/power cost — SRAM
capacity and the number of programmable FSMs — and reports performance
normalised to the chosen design point (4 MB, 16 FSMs).  The paper observes
diminishing returns past that point (only ~6 % improvement at 8 MB / 20 FSMs),
which is what selects the shipped configuration.

Fig. 9b reports how often ACE is busy (has at least one chunk in flight)
during the forward and backward passes of each workload: near zero in the
forward pass (data parallel workloads communicate during back-propagation)
and ~90 % during back-propagation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.dse import sweep_design_space
from repro.experiments.common import chunk_bytes_for
from repro.runner import SweepRunner, default_runner, training_job

#: (SRAM MB, #FSM) points of the paper's Fig. 9a sweep.
PAPER_DESIGN_POINTS: Tuple[Tuple[float, int], ...] = (
    (0.125, 1),
    (0.25, 1),
    (0.5, 2),
    (1, 4),
    (2, 8),
    (4, 8),
    (4, 16),
    (8, 16),
    (8, 20),
)
FAST_DESIGN_POINTS: Tuple[Tuple[float, int], ...] = ((0.125, 1), (0.5, 2), (4, 16), (8, 20))
#: The selected configuration everything is normalised to.
REFERENCE_POINT: Tuple[float, int] = (4, 16)


def run_fig9a(
    fast: bool = True,
    workloads: Sequence[str] = ("resnet50",),
    sizes: Sequence[int] = (16,),
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, object]]:
    """Run the SRAM/FSM design-space sweep and normalise to (4 MB, 16 FSMs)."""
    points = list(FAST_DESIGN_POINTS if fast else PAPER_DESIGN_POINTS)
    if REFERENCE_POINT not in points:
        points.append(REFERENCE_POINT)
    return sweep_design_space(
        design_points=points,
        workloads=workloads,
        sizes=sizes,
        reference=REFERENCE_POINT,
        fast=fast,
        runner=runner,
    )


def run_fig9b(
    fast: bool = True,
    workloads: Sequence[str] = ("resnet50", "gnmt", "dlrm"),
    num_npus: int = 128,
    runner: Optional[SweepRunner] = None,
) -> List[Dict[str, object]]:
    """ACE utilization during forward vs backward pass for each workload."""
    runner = runner or default_runner()
    if fast:
        num_npus = min(num_npus, 64)
    jobs = [
        training_job(
            "ace",
            name,
            num_npus=num_npus,
            iterations=2,
            chunk_bytes=chunk_bytes_for(name, fast),
        )
        for name in workloads
    ]
    return [
        {
            "workload": name,
            "npus": num_npus,
            "ace_util_forward": result.endpoint_utilization_forward,
            "ace_util_backward": result.endpoint_utilization_backward,
        }
        for name, result in zip(workloads, runner.run_values(jobs))
    ]
