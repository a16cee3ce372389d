"""ACE endpoint: collective processing offloaded to the engine at the AFI.

The endpoint books the pieces of Fig. 7 that set chunk timing — the AFI
TX/RX DMAs (#2/#4) and the FSM-based control unit (#6), whose occupancy
carries the SRAM (#1) and reduction-ALU (#3) streams.  Per chunk (the
walk-through of Fig. 8c):

* **ingress** — the TX DMA streams the chunk from main memory into the ACE
  SRAM, drawing on the HBM slice carved out for ACE (128 GB/s by default)
  and the NPU-AFI bus.
* **phase processing** — an FSM programmed for the phase drives the dataflow:
  received data is streamed through the ALUs (if the phase reduces) and
  through the SRAM banks; the FSM is occupied for the slower of the two
  streams plus its control overhead, so the FSM count bounds how many
  chunk-phases proceed concurrently.  How many chunks are resident at once
  is ``AceConfig.max_inflight_chunks``.
* **egress** — the RX DMA writes the finished chunk back to main memory.

The decisive differences from the baseline:

* no NPU SMs are consumed (ACE carries the empty ``ResourcePolicy``, so the
  training computation keeps all 80 SMs),
* main memory sees exactly one read (TX DMA) and one write (RX DMA) of the
  payload per collective, instead of per-step traffic (Section VI-A),
* multi-hop forwarding (all-to-all) is absorbed by the SRAM, costing no HBM
  bandwidth at the intermediate NPUs.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.collectives.base import CollectivePlan
from repro.config.system import EndpointKind, SystemConfig
from repro.endpoint.base import Endpoint, PhaseWork
from repro.errors import ConfigurationError, SchedulingError
from repro.sim.resources import BandwidthResource, SlotResource
from repro.units import cycles_to_ns


class AceEndpoint(Endpoint):
    """Endpoint backed by the Accelerator Collectives Engine.

    Everything it books comes from ``system.ace`` and ``system.memory``: its
    HBM slice is ``ace.memory_bandwidth_gbps``, and it reads no ``policy``
    field (ACE's policy is always empty).
    """

    #: Fixed FSM control overhead charged per processed phase, in ACE cycles.
    PHASE_CONTROL_OVERHEAD_CYCLES = 64.0

    def __init__(self, system: SystemConfig) -> None:
        if system.endpoint is not EndpointKind.ACE:
            raise ConfigurationError(
                f"AceEndpoint requires an ACE system configuration, got {system.endpoint}"
            )
        super().__init__(system)
        ace = system.ace
        overhead = system.memory.transaction_overhead_ns
        # A DMA crosses its engine, the NPU-AFI bus (shared by both
        # directions) and one channel of ACE's HBM slice.  Reads and writes
        # travel on separate channels of the slice's bandwidth (HBM
        # pseudo-channels), so egress writes never queue behind the ingress
        # reads that feed the network.
        self._tx_dma = BandwidthResource("dma[ace-tx]", ace.tx_dma_bandwidth_gbps)
        self._rx_dma = BandwidthResource("dma[ace-rx]", ace.rx_dma_bandwidth_gbps)
        self._bus = BandwidthResource(
            "bus[npu-afi]", system.memory.npu_afi_bus_bandwidth_gbps, overhead
        )
        self._hbm_read = BandwidthResource(
            "hbm[ace-dma].read", ace.memory_bandwidth_gbps, overhead
        )
        self._hbm_write = BandwidthResource(
            "hbm[ace-dma].write", ace.memory_bandwidth_gbps, overhead
        )
        #: Phase name -> the FSMs programmed for it (see :meth:`configure`).
        self._fsms: Dict[str, SlotResource] = {}
        self._cycle_ns = cycles_to_ns(1.0, ace.frequency_mhz)
        self._sram_bandwidth_gbps = ace.sram_bandwidth_gbps
        self._alu_throughput_gbps = ace.alu_throughput_gbps

    # ------------------------------------------------------------------
    # Capacity and configuration
    # ------------------------------------------------------------------
    def chunk_capacity(self) -> int:
        """How many chunks may be resident in the ACE SRAM simultaneously."""
        return self.system.ace.max_inflight_chunks

    def configure(self, plan: CollectivePlan) -> None:
        """Program the FSMs for ``plan`` (Section IV-F).

        All FSMs are additionally programmed for the single-phase all-to-all
        (Section V: "all FSMs are programmed to be able to execute all-to-all
        in addition to their assigned all-reduce phase").  With at least as
        many FSMs as phases, FSMs are dealt to phases round-robin, so each
        phase gets a dedicated group.  Smaller pools — explored in the
        Fig. 9a design-space sweep — time-share every FSM across all phases,
        modelled as one shared slot pool.
        """
        phases = [f"phase{i}" for i in range(len(plan.phases))] or ["phase0"]
        phases.append("all_to_all")
        num_fsms = self.system.ace.num_fsms
        if len(phases) <= num_fsms:
            share, extra = divmod(num_fsms, len(phases))
            self._fsms = {
                phase: SlotResource(f"fsm[{phase}]", share + (index < extra))
                for index, phase in enumerate(phases)
            }
        else:
            self._fsms = dict.fromkeys(phases, SlotResource("fsm[shared]", num_fsms))

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------
    def _dma(
        self,
        engine: BandwidthResource,
        channel: BandwidthResource,
        num_bytes: float,
        earliest_start: float,
    ) -> float:
        """Book a DMA's engine, the bus and an HBM channel; the slowest leg finishes it."""
        finish = engine.reserve_times(num_bytes, earliest_start)[1]
        leg = self._bus.reserve_times(num_bytes, earliest_start)[1]
        if leg > finish:
            finish = leg
        leg = channel.reserve_times(num_bytes, earliest_start)[1]
        if leg > finish:
            finish = leg
        return finish

    def ingress(self, chunk_bytes: float, earliest_start: float) -> float:
        """TX DMA the chunk from main memory into the ACE SRAM."""
        return self._dma(self._tx_dma, self._hbm_read, chunk_bytes, earliest_start)

    def phase_cost(self, work: PhaseWork) -> Tuple[SlotResource, float]:
        """The FSMs programmed for ``work``'s phase and one chunk-phase's occupancy.

        The SRAM and ALU streams run under the FSM occupancy: an FSM is held
        for the slower of the two plus its control overhead.  The FSMs are
        the ones :meth:`configure` programmed last.
        """
        try:
            fsms = self._fsms[work.phase_name]
        except KeyError:
            raise SchedulingError(f"no FSM programmed for phase {work.phase_name!r}") from None
        reduce_bytes = work.reduce_bytes
        touched_bytes = work.send_bytes + reduce_bytes + work.forward_bytes
        sram_time = touched_bytes / self._sram_bandwidth_gbps if touched_bytes else 0.0
        alu_time = reduce_bytes / self._alu_throughput_gbps if reduce_bytes else 0.0
        steps = work.steps
        control_time = (
            self.PHASE_CONTROL_OVERHEAD_CYCLES * self._cycle_ns * (steps if steps > 1 else 1)
        )
        return fsms, (alu_time if alu_time > sram_time else sram_time) + control_time

    def process_phase(self, cost: Tuple[SlotResource, float], earliest_start: float) -> float:
        """Run one chunk-phase through an FSM, the SRAM datapath and the ALUs.

        Only the FSM is booked.  Returns the time at which the phase's
        outgoing data has been handed to the port buffers (i.e. is ready for
        link injection).
        """
        fsms, duration = cost
        return fsms.acquire(earliest_start, duration)[2]

    def egress(self, chunk_bytes: float, earliest_start: float) -> float:
        """RX DMA the finished chunk from the ACE SRAM to main memory."""
        return self._dma(self._rx_dma, self._hbm_write, chunk_bytes, earliest_start)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def memory_read_bytes(self) -> float:
        """Bytes the TX DMA read from ACE's HBM slice so far."""
        return self._hbm_read.bytes_moved

    @property
    def memory_write_bytes(self) -> float:
        """Bytes the RX DMA wrote to ACE's HBM slice so far."""
        return self._hbm_write.bytes_moved
