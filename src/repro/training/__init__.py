"""Training-loop simulation.

This package recreates the ASTRA-sim-style training loop of Section V:
layer-by-layer forward and backward compute on the NPU engine, per-layer
collective issue during back-propagation, LIFO collective scheduling, and
exposed-communication accounting.  The result objects carry everything the
paper's figures report: total compute time, exposed communication, iteration
time, achieved network bandwidth and utilization timelines.
"""

from repro.training.comm import CollectiveExecutor, CollectiveHandle
from repro.training.loop import TrainingLoop, simulate_training
from repro.training.results import IterationBreakdown, TrainingResult

__all__ = [
    "CollectiveExecutor",
    "CollectiveHandle",
    "TrainingLoop",
    "simulate_training",
    "IterationBreakdown",
    "TrainingResult",
]
