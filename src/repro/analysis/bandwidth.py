"""Network-drive and memory-bandwidth analyses (Figs. 5 and 6, Section VI-A).

Two kinds of analysis live here:

* **Measured** — :func:`measure_network_drive` runs a single large all-reduce
  through the full executor and reports the achieved per-NPU network
  bandwidth, which is exactly the experiment behind Fig. 5 (sweeping the
  memory bandwidth available to communication) and Fig. 6 (sweeping the
  number of SMs available to communication).

* **Analytical** — :func:`analytical_memory_traffic` reproduces the
  Section VI-A arithmetic: the baseline reads ~1.5 bytes from memory per byte
  injected, while ACE reads only the payload once however many network bytes
  the hierarchical algorithm moves (2.25 per payload byte on a 4x4x4 torus),
  which is where the ~3.5x memory-bandwidth reduction comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.collectives.base import CollectiveOp
from repro.collectives.planner import plan_collective
from repro.config.system import SystemConfig
from repro.errors import ConfigurationError
from repro.network.topology import Topology, Torus3D
from repro.sim.engine import Simulator
from repro.training.comm import CollectiveExecutor
from repro.units import MB


# ---------------------------------------------------------------------------
# Measured network drive (Figs. 5 and 6)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkDriveResult:
    """Outcome of driving the fabric with one large collective."""

    system_name: str
    num_npus: int
    payload_bytes: int
    duration_ns: float
    bytes_injected: float
    memory_read_bytes: float
    memory_write_bytes: float

    @property
    def achieved_bandwidth_gbps(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.bytes_injected / self.duration_ns

    @property
    def memory_read_bandwidth_gbps(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.memory_read_bytes / self.duration_ns


def measure_network_drive(
    system: SystemConfig,
    topology: Topology,
    payload_bytes: int = 64 * MB,
    op: CollectiveOp = CollectiveOp.ALL_REDUCE,
    chunk_bytes: Optional[int] = None,
) -> NetworkDriveResult:
    """Run one collective in isolation and measure the achieved network drive.

    The network model is ``system.network_backend``.
    """
    sim = Simulator()
    executor = CollectiveExecutor(sim, system, topology, chunk_bytes=chunk_bytes)
    handle = executor.issue(op, payload_bytes)
    sim.run()
    if handle.completed_at is None:
        raise ConfigurationError("collective did not complete; check the configuration")
    # No fabric FIFO may have double-booked busy time — the failure mode
    # batched/coalesced booking could hide.
    horizon = max(handle.completed_at, executor.fabric.last_activity(), 1.0)
    executor.fabric.check_accounting(horizon)
    duration = handle.completed_at - handle.issued_at
    return NetworkDriveResult(
        system_name=system.name,
        num_npus=topology.num_nodes,
        payload_bytes=payload_bytes,
        duration_ns=duration,
        bytes_injected=executor.fabric.bytes_injected,
        memory_read_bytes=executor.endpoint.memory_read_bytes,
        memory_write_bytes=executor.endpoint.memory_write_bytes,
    )


def memory_bw_sweep(
    topology: Torus3D,
    memory_bandwidths_gbps: List[float],
    payload_bytes: int = 64 * MB,
    chunk_bytes: Optional[int] = None,
    runner=None,
) -> List[Dict[str, float]]:
    """Fig. 5: achieved network BW vs memory BW available for communication.

    The baseline uses all 80 SMs for communication (as in the paper's Fig. 5
    setup) so that memory bandwidth is the only bottleneck being swept; ACE
    sweeps its DMA memory-bandwidth slice; the ideal system is the horizontal
    upper-bound line.  The whole sweep is dispatched as one job batch through
    ``runner`` (the shared default runner when omitted).
    """
    # Imported here: repro.runner itself simulates through this module.
    from repro.runner import default_runner, network_drive_job

    runner = runner or default_runner()
    shape = topology.shape
    jobs = [network_drive_job("ideal", payload_bytes, topology=shape, chunk_bytes=chunk_bytes)]
    for bw in memory_bandwidths_gbps:
        jobs.append(
            network_drive_job(
                "baseline_comm_opt",
                payload_bytes,
                topology=shape,
                chunk_bytes=chunk_bytes,
                overrides={"policy": {"comm_sms": 80, "comm_memory_bandwidth_gbps": bw}},
            )
        )
        jobs.append(
            network_drive_job(
                "ace",
                payload_bytes,
                topology=shape,
                chunk_bytes=chunk_bytes,
                overrides={"ace": {"memory_bandwidth_gbps": bw}},
            )
        )
    drives = runner.run_values(jobs)
    ideal = drives[0]
    rows: List[Dict[str, float]] = []
    for index, bw in enumerate(memory_bandwidths_gbps):
        baseline = drives[1 + 2 * index]
        ace = drives[2 + 2 * index]
        rows.append(
            {
                "memory_bw_gbps": bw,
                "npus": float(topology.num_nodes),
                "ideal_net_bw_gbps": ideal.achieved_bandwidth_gbps,
                "baseline_net_bw_gbps": baseline.achieved_bandwidth_gbps,
                "ace_net_bw_gbps": ace.achieved_bandwidth_gbps,
                "baseline_frac_of_ideal": baseline.achieved_bandwidth_gbps
                / max(1e-9, ideal.achieved_bandwidth_gbps),
                "ace_frac_of_ideal": ace.achieved_bandwidth_gbps
                / max(1e-9, ideal.achieved_bandwidth_gbps),
            }
        )
    return rows


def sm_sweep(
    topology: Torus3D,
    sm_counts: List[int],
    payload_bytes: int = 64 * MB,
    chunk_bytes: Optional[int] = None,
    runner=None,
) -> List[Dict[str, float]]:
    """Fig. 6: achieved network BW vs number of SMs used for communication.

    All 900 GB/s of memory bandwidth is made available to communication (as
    in the paper), so the SM streaming throughput (~80 GB/s per SM) is the
    swept bottleneck.
    """
    from repro.runner import default_runner, network_drive_job

    runner = runner or default_runner()
    jobs = [
        network_drive_job(
            "baseline_comm_opt",
            payload_bytes,
            topology=topology.shape,
            chunk_bytes=chunk_bytes,
            overrides={"policy": {"comm_sms": sms, "comm_memory_bandwidth_gbps": 900.0}},
        )
        for sms in sm_counts
    ]
    rows: List[Dict[str, float]] = []
    for sms, baseline in zip(sm_counts, runner.run_values(jobs)):
        rows.append(
            {
                "comm_sms": float(sms),
                "npus": float(topology.num_nodes),
                "baseline_net_bw_gbps": baseline.achieved_bandwidth_gbps,
                "memory_read_bw_gbps": baseline.memory_read_bandwidth_gbps,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Analytical memory-traffic model (Section VI-A)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemoryBandwidthRequirement:
    """Section VI-A style accounting for one all-reduce on one topology."""

    topology_name: str
    num_npus: int
    injected_bytes_per_payload_byte: float
    baseline_reads_per_payload_byte: float
    ace_reads_per_payload_byte: float

    @property
    def baseline_reads_per_injected_byte(self) -> float:
        return self.baseline_reads_per_payload_byte / self.injected_bytes_per_payload_byte

    @property
    def ace_reads_per_injected_byte(self) -> float:
        return self.ace_reads_per_payload_byte / self.injected_bytes_per_payload_byte

    @property
    def memory_bw_reduction(self) -> float:
        """Baseline / ACE read-bandwidth requirement to drive the same network BW."""
        if self.ace_reads_per_injected_byte <= 0:
            return float("inf")
        return self.baseline_reads_per_injected_byte / self.ace_reads_per_injected_byte


def analytical_memory_traffic(topology: Torus3D) -> MemoryBandwidthRequirement:
    """Reproduce the Section VI-A analysis for the hierarchical all-reduce.

    Baseline: every reduce-scatter-style byte sent requires two reads (local +
    received copy), every all-gather byte sent requires one read.  ACE: the
    payload is read into the SRAM exactly once regardless of how many bytes
    the algorithm injects.  The accounting is derived for the paper's
    hierarchical all-reduce, so that algorithm is pinned here explicitly
    rather than inherited from auto-selection.
    """
    plan = plan_collective(CollectiveOp.ALL_REDUCE, topology, algorithm="hierarchical")
    injected = plan.total_injected_fraction
    baseline_reads = sum(
        p.bytes_sent_fraction + p.reduced_bytes_fraction for p in plan.phases
    )
    ace_reads = 1.0 if plan.phases else 0.0
    return MemoryBandwidthRequirement(
        topology_name=topology.name,
        num_npus=topology.num_nodes,
        injected_bytes_per_payload_byte=injected,
        baseline_reads_per_payload_byte=baseline_reads,
        ace_reads_per_payload_byte=ace_reads,
    )
