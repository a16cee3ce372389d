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

from repro.config.system import SystemConfig
from repro.endpoint.base import Endpoint, PhaseWork
from repro.errors import ConfigurationError
from repro.memory.bus import Bus
from repro.memory.hbm import MemorySystem
from repro.sim.resources import BandwidthResource


class BaselineEndpoint(Endpoint):
    """NPU-driven collective processing (BaselineCommOpt / CompOpt / NoOverlap)."""

    #: Default number of chunks the software pipeline keeps in flight.
    DEFAULT_PIPELINE_DEPTH = 32
    #: Software handoff latency per chunk-phase: the collective kernel's
    #: per-step synchronisation with its peer and the CUDA-stream scheduling
    #: between pipeline stages.  This is latency, not occupancy — large
    #: collectives still reach the bandwidth-bound throughput of Fig. 5, but
    #: small collectives (ResNet-50's per-layer gradients) become
    #: latency-bound, which is one of the inefficiencies Section VI-B calls
    #: out for the baseline.
    PHASE_SOFTWARE_LATENCY_NS = 5_000.0

    def __init__(self, system: SystemConfig, pipeline_depth: int = DEFAULT_PIPELINE_DEPTH) -> None:
        super().__init__(system)
        if pipeline_depth <= 0:
            raise ConfigurationError("pipeline_depth must be positive")
        policy = system.policy
        if policy.comm_memory_bandwidth_gbps <= 0:
            raise ConfigurationError(
                "baseline endpoint needs a positive communication memory bandwidth"
            )
        if policy.comm_sms <= 0:
            raise ConfigurationError("baseline endpoint needs at least one communication SM")
        self.pipeline_depth = pipeline_depth

        self.memory = MemorySystem(
            system.memory.npu_memory_bandwidth_gbps,
            system.memory.transaction_overhead_ns,
        )
        self._comm_memory = self.memory.allocate(
            "comm", policy.comm_memory_bandwidth_gbps
        )
        self.bus = Bus(
            "npu-afi",
            system.memory.npu_afi_bus_bandwidth_gbps,
            system.memory.transaction_overhead_ns,
        )
        # The SMs running the collective kernels: their aggregate ability to
        # move data between memory and the AFI.
        self._sm_pipe = BandwidthResource("comm-sms", system.comm_sm_bandwidth_gbps)
        self._write_bytes = 0.0

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    def chunk_capacity(self) -> int:
        return self.pipeline_depth

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------
    def ingress(self, chunk_bytes: float, earliest_start: float) -> float:
        """No staging: the baseline reads from main memory on every step."""
        return earliest_start

    def process_phase(self, work: PhaseWork, earliest_start: float) -> float:
        """Prepare one phase's traffic: HBM reads, SM streaming and bus crossing."""
        read_bytes = work.send_bytes + work.reduce_bytes + work.forward_bytes
        write_bytes = work.reduce_bytes + work.forward_bytes
        if work.is_last:
            # The final phase also stores the gathered result back to memory.
            write_bytes += work.send_bytes
        finish = earliest_start
        if read_bytes > 0:
            finish = self._comm_memory.read(read_bytes, earliest_start)[1]
            sm_finish = self._sm_pipe.reserve_times(read_bytes, earliest_start)[1]
            if sm_finish > finish:
                finish = sm_finish
            bus_finish = self.bus.transfer(
                work.send_bytes + work.forward_bytes, earliest_start
            )[1]
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
        return self._comm_memory.read_bytes

    @property
    def memory_write_bytes(self) -> float:
        return self._write_bytes

    @property
    def comm_sm_bandwidth_gbps(self) -> float:
        return self._sm_pipe.bandwidth_gbps

    def reset(self) -> None:
        self.memory.reset()
        self.bus.reset()
        self._sm_pipe.reset()
        self._write_bytes = 0.0
        self.activity.reset()
