"""Result containers for training-loop simulations.

A :class:`TrainingResult` carries everything the paper's evaluation figures
report for one (system configuration, workload, platform size) point:

* total computation time and exposed communication time (Fig. 11a),
* the iteration time and its derived speedups (Fig. 11b),
* achieved network bandwidth and link utilization (Figs. 5, 10),
* endpoint statistics — memory traffic and ACE utilization (Fig. 9b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import SimulationError
from repro.units import ns_to_us


@dataclass
class IterationBreakdown:
    """Timing of one training iteration."""

    index: int
    forward_start_ns: float = 0.0
    backward_start_ns: float = 0.0
    end_ns: float = 0.0
    compute_ns: float = 0.0
    exposed_comm_ns: float = 0.0

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.forward_start_ns

    @property
    def forward_window(self) -> Tuple[float, float]:
        return (self.forward_start_ns, self.backward_start_ns)

    @property
    def backward_window(self) -> Tuple[float, float]:
        return (self.backward_start_ns, self.end_ns)


@dataclass
class TrainingResult:
    """Outcome of simulating ``iterations`` training iterations."""

    system_name: str
    workload_name: str
    num_npus: int
    iterations: int
    total_time_ns: float
    total_compute_ns: float
    exposed_comm_ns: float
    bytes_injected: float
    makespan_ns: float
    iteration_breakdowns: List[IterationBreakdown] = field(default_factory=list)
    endpoint_memory_read_bytes: float = 0.0
    endpoint_memory_write_bytes: float = 0.0
    endpoint_utilization_forward: float = 0.0
    endpoint_utilization_backward: float = 0.0
    network_utilization: float = 0.0
    collectives_issued: int = 0
    compute_utilization_series: List[Tuple[float, float]] = field(default_factory=list)
    network_utilization_series: List[Tuple[float, float]] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise SimulationError("iterations must be positive")
        if self.total_time_ns < 0:
            raise SimulationError("total time cannot be negative")

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def iteration_time_ns(self) -> float:
        """Average time per training iteration."""
        return self.total_time_ns / self.iterations

    @property
    def iteration_time_us(self) -> float:
        return ns_to_us(self.iteration_time_ns)

    @property
    def total_time_us(self) -> float:
        return ns_to_us(self.total_time_ns)

    @property
    def total_compute_us(self) -> float:
        return ns_to_us(self.total_compute_ns)

    @property
    def exposed_comm_us(self) -> float:
        return ns_to_us(self.exposed_comm_ns)

    @property
    def exposed_comm_fraction(self) -> float:
        """Exposed communication as a fraction of the total training time."""
        if self.total_time_ns <= 0:
            return 0.0
        return self.exposed_comm_ns / self.total_time_ns

    @property
    def achieved_network_bandwidth_gbps(self) -> float:
        """Average per-NPU network injection bandwidth over the run (GB/s)."""
        horizon = max(self.total_time_ns, self.makespan_ns)
        if horizon <= 0:
            return 0.0
        return self.bytes_injected / horizon

    def fraction_of_ideal(self, ideal: "TrainingResult") -> float:
        """This configuration's performance as a fraction of the ideal system's."""
        if self.total_time_ns <= 0:
            raise SimulationError("cannot compare a zero-time result")
        return ideal.iteration_time_ns / self.iteration_time_ns

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def as_row(self) -> Dict[str, object]:
        """Flat dictionary row used by the experiment harnesses."""
        return {
            "system": self.system_name,
            "workload": self.workload_name,
            "npus": self.num_npus,
            "iterations": self.iterations,
            "total_compute_us": round(self.total_compute_us, 2),
            "exposed_comm_us": round(self.exposed_comm_us, 2),
            "total_time_us": round(self.total_time_us, 2),
            "iteration_time_us": round(self.iteration_time_us, 2),
            "achieved_net_bw_gbps": round(self.achieved_network_bandwidth_gbps, 2),
            "network_utilization": round(self.network_utilization, 4),
        }

    def describe(self) -> str:
        row = self.as_row()
        return (
            f"{row['system']:>20s} | {row['workload']:>9s} | {row['npus']:>4d} NPUs | "
            f"compute {row['total_compute_us']:>10.1f} us | "
            f"exposed comm {row['exposed_comm_us']:>10.1f} us | "
            f"total {row['total_time_us']:>10.1f} us | "
            f"net {row['achieved_net_bw_gbps']:>6.1f} GB/s"
        )
