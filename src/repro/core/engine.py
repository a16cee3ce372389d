"""The assembled ACE engine.

:class:`AceEngine` wires together the pieces of Fig. 7 — the partitioned SRAM
(#1), the AFI TX/RX DMAs (#2/#4), the reduction ALUs (#3), the port buffers
feeding the network (#5) and the FSM-based control unit (#6) — into the
timing model the :class:`repro.endpoint.ace.AceEndpoint` exposes to the
collective executor.

Timing behaviour per chunk (the walk-through of Fig. 8c):

* **ingress** — the TX DMA streams the chunk from main memory into the first
  phase's SRAM partition, drawing on the HBM bandwidth carved out for ACE
  (128 GB/s by default) and the NPU-AFI bus.
* **phase processing** — an FSM programmed for the phase drives the dataflow:
  received data is streamed through the ALUs (if the phase reduces) and
  through the SRAM banks; the FSM is occupied for the slower of the two
  streams plus its control overhead, so the FSM count bounds how many
  chunk-phases proceed concurrently.  The SRAM datapath and the ALUs book
  no time of their own: their cost is inside that occupancy.
* **egress** — the RX DMA writes the finished chunk back to main memory.

The crucial difference from the baseline endpoint is *what is charged to main
memory*: exactly one read and one write of the payload per collective,
regardless of how many network bytes the algorithm moves (Section VI-A).
"""

from __future__ import annotations

from typing import Optional

from repro.collectives.base import CollectivePlan
from repro.config.system import SystemConfig
from repro.core.alu import AluArray
from repro.core.fsm import FsmPool
from repro.core.granularity import GranularityPolicy
from repro.core.sram import SramScratchpad, partition_sram
from repro.errors import SchedulingError
from repro.memory.bus import Bus
from repro.memory.dma import DmaEngine
from repro.memory.hbm import MemorySystem
from repro.units import cycles_to_ns


class AceEngine:
    """Timing model of the ACE micro-architecture."""

    #: Fixed FSM control overhead charged per processed phase, in ACE cycles.
    PHASE_CONTROL_OVERHEAD_CYCLES = 64.0

    def __init__(self, system: SystemConfig) -> None:
        self.system = system
        self.ace = system.ace
        self.granularity = GranularityPolicy.from_ace_config(system.ace)
        self.fsms = FsmPool(system.ace.num_fsms)
        self.alus = AluArray(system.ace)

        # Memory-side plumbing: ACE draws a fixed slice of HBM bandwidth and
        # shares the NPU-AFI bus with regular traffic.
        self.memory = MemorySystem(
            system.memory.npu_memory_bandwidth_gbps,
            system.memory.transaction_overhead_ns,
        )
        self._hbm_slice = self.memory.allocate("ace-dma", system.ace.memory_bandwidth_gbps)
        self.bus = Bus(
            "npu-afi",
            system.memory.npu_afi_bus_bandwidth_gbps,
            system.memory.transaction_overhead_ns,
        )
        self.tx_dma = DmaEngine(
            "ace-tx", system.ace.tx_dma_bandwidth_gbps, self._hbm_slice, self.bus, "tx"
        )
        self.rx_dma = DmaEngine(
            "ace-rx", system.ace.rx_dma_bandwidth_gbps, self._hbm_slice, self.bus, "rx"
        )
        self.sram: Optional[SramScratchpad] = None
        self._plan: Optional[CollectivePlan] = None
        self._cycle_ns = cycles_to_ns(1.0, system.ace.frequency_mhz)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def configure(self, plan: CollectivePlan) -> None:
        """Partition the SRAM and program the FSMs for ``plan``.

        All FSMs are additionally programmed for the single-phase all-to-all
        (Section V: "all FSMs are programmed to be able to execute all-to-all
        in addition to their assigned all-reduce phase").
        """
        sizes = partition_sram(plan, self.ace, self.system.network)
        self.sram = SramScratchpad(sizes)
        phase_names = [f"phase{i}" for i in range(len(plan.phases))] or ["phase0"]
        self.fsms.program(phase_names + ["all_to_all"])
        self._plan = plan

    @property
    def configured(self) -> bool:
        return self._plan is not None

    def _require_configured(self) -> None:
        if not self.configured:
            raise SchedulingError("AceEngine.configure(plan) must be called before use")

    # ------------------------------------------------------------------
    # Chunk pipeline stages
    # ------------------------------------------------------------------
    def chunk_capacity(self) -> int:
        """How many chunks may be resident in the SRAM simultaneously."""
        return max(1, self.ace.max_inflight_chunks)

    def ingress(self, chunk_bytes: float, earliest_start: float) -> float:
        """TX DMA the chunk from main memory into the phase-0 partition."""
        self._require_configured()
        return self.tx_dma.transfer(chunk_bytes, earliest_start)[1]

    def process_phase(
        self,
        phase_name: str,
        send_bytes: float,
        reduce_bytes: float,
        forward_bytes: float,
        steps: int,
        earliest_start: float,
    ) -> float:
        """Run one chunk-phase through an FSM, the SRAM datapath and the ALUs.

        The SRAM and ALU streams run under the FSM occupancy, so only the FSM
        is booked.  Returns the time at which the phase's outgoing data has
        been handed to the port buffers (i.e. is ready for link injection).
        """
        if self._plan is None:
            self._require_configured()
        touched_bytes = send_bytes + reduce_bytes + forward_bytes
        sram_time = touched_bytes / self.ace.sram_bandwidth_gbps if touched_bytes else 0.0
        alu_time = reduce_bytes / self.ace.alu_throughput_gbps if reduce_bytes else 0.0
        control_time = (
            self.PHASE_CONTROL_OVERHEAD_CYCLES * self._cycle_ns * (steps if steps > 1 else 1)
        )
        duration = (alu_time if alu_time > sram_time else sram_time) + control_time
        _, _, finish = self.fsms.acquire(phase_name, earliest_start, duration)
        if reduce_bytes:
            self.alus.reduce(reduce_bytes)
        return finish

    def egress(self, chunk_bytes: float, earliest_start: float) -> float:
        """RX DMA the finished chunk from the terminal partition to main memory."""
        self._require_configured()
        return self.rx_dma.transfer(chunk_bytes, earliest_start)[1]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def memory_read_bytes(self) -> float:
        return self._hbm_slice.read_bytes

    @property
    def memory_write_bytes(self) -> float:
        return self._hbm_slice.write_bytes

    def reset(self) -> None:
        self.fsms.reset()
        self.alus.reset()
        self.memory.reset()
        self.bus.reset()
        self.tx_dma.reset()
        self.rx_dma.reset()
        if self.sram is not None:
            self.sram.reset()
