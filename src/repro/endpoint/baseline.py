"""Baseline endpoint: collectives run on NPU SMs and main memory.

This models today's software collectives (NCCL / oneCCL style, Section III):
a handful of SMs iterate over send/recv/reduce loops, and every byte that
goes to or comes from the network passes through HBM.

Memory-read accounting follows Section VI-A exactly:

* a reduce-scatter-like step sends N bytes after reading 2N (the local copy
  plus the received copy staged in memory),
* an all-gather / forwarding step sends N bytes after reading N,
* multi-hop traffic forwarded on behalf of other NPUs (all-to-all on the
  torus) is read once more on each intermediate hop.

Write traffic (staging received data, storing reduced results) is counted for
reporting but books no HBM time: it travels on the write channel, which never
gates the baseline, so the 450-GB/s-to-drive-the-network figure of Fig. 5 is a
*read* bandwidth requirement, as in the paper.

The processing rate is additionally capped by the SMs assigned to
communication: each SM can drive roughly 80 GB/s of memory traffic
(64 B/cycle at 1245 MHz, Section III), which is what the Fig. 6 sweep varies.
"""

from __future__ import annotations

from typing import Tuple

from repro.config.system import SystemConfig
from repro.endpoint.base import Endpoint, PhaseWork
from repro.sim.resources import BandwidthResource


class BaselineEndpoint(Endpoint):
    """NPU-driven collective processing (BaselineCommOpt / CompOpt / NoOverlap)."""

    #: Number of chunks the software pipeline keeps in flight.
    PIPELINE_DEPTH = 32
    #: Software handoff latency per chunk-phase: the collective kernel's
    #: per-step synchronisation with its peer and the CUDA-stream scheduling
    #: between pipeline stages.  This is latency, not occupancy — large
    #: collectives still reach the bandwidth-bound throughput of Fig. 5, but
    #: small collectives (ResNet-50's per-layer gradients) become
    #: latency-bound, which is one of the inefficiencies Section VI-B calls
    #: out for the baseline.
    PHASE_SOFTWARE_LATENCY_NS = 5_000.0

    def __init__(self, system: SystemConfig) -> None:
        super().__init__(system)
        policy = system.policy
        overhead = system.memory.transaction_overhead_ns
        # The read channel of the HBM bandwidth reserved for communication.
        self._hbm_read = BandwidthResource(
            "hbm[comm].read", policy.comm_memory_bandwidth_gbps, overhead
        )
        # The SMs running the collective kernels: their aggregate ability to
        # move data between memory and the AFI.
        self._sm_pipe = BandwidthResource(
            "comm-sms", policy.comm_sms * system.compute.sm_memory_bandwidth_gbps
        )
        self._bus = BandwidthResource(
            "bus[npu-afi]", system.memory.npu_afi_bus_bandwidth_gbps, overhead
        )
        self._write_bytes = 0.0

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    def chunk_capacity(self) -> int:
        """The software pipeline's depth."""
        return self.PIPELINE_DEPTH

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------
    def ingress(self, chunk_bytes: float, earliest_start: float) -> float:
        """No staging: the baseline reads from main memory on every step."""
        return earliest_start

    def phase_cost(self, work: PhaseWork) -> Tuple[float, float, float]:
        """One chunk-phase's ``(read, bus, write)`` bytes.

        Reads are everything sent, reduced or forwarded; the bus carries what
        leaves for the AFI; writes stage what is reduced or forwarded.
        """
        write_bytes = work.reduce_bytes + work.forward_bytes
        if work.is_last:
            # The final phase also stores the gathered result back to memory.
            write_bytes += work.send_bytes
        return (
            work.send_bytes + work.reduce_bytes + work.forward_bytes,
            work.send_bytes + work.forward_bytes,
            write_bytes,
        )

    def process_phase(self, cost: Tuple[float, float, float], earliest_start: float) -> float:
        """Prepare one phase's traffic: HBM reads, SM streaming and bus crossing."""
        read_bytes, bus_bytes, write_bytes = cost
        finish = earliest_start
        if read_bytes > 0:
            finish = self._hbm_read.reserve_times(read_bytes, earliest_start)[1]
            sm_finish = self._sm_pipe.reserve_times(read_bytes, earliest_start)[1]
            if sm_finish > finish:
                finish = sm_finish
            bus_finish = self._bus.reserve_times(bus_bytes, earliest_start)[1]
            if bus_finish > finish:
                finish = bus_finish
        self._write_bytes += write_bytes
        return finish + self.PHASE_SOFTWARE_LATENCY_NS

    def egress(self, chunk_bytes: float, earliest_start: float) -> float:
        """Results are written back as part of the final phase's steps."""
        return earliest_start

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def memory_read_bytes(self) -> float:
        """Bytes read from the communication HBM channel so far."""
        return self._hbm_read.bytes_moved

    @property
    def memory_write_bytes(self) -> float:
        """Bytes staged or stored back to HBM so far (counted, never booked)."""
        return self._write_bytes
