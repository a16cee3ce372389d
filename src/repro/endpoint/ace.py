"""ACE endpoint: collective processing offloaded to the engine at the AFI.

The endpoint is a thin adapter between the collective executor's
ingress / process / egress protocol and the :class:`repro.core.engine.AceEngine`
micro-architecture model.  The decisive differences from the baseline:

* no NPU SMs are consumed (``comm_uses_npu_sms`` is False in the system
  policy, so the training computation keeps all 80 SMs),
* main memory sees exactly one read (TX DMA) and one write (RX DMA) of the
  payload per collective, instead of per-step traffic,
* multi-hop forwarding (all-to-all) is absorbed by the SRAM, costing no HBM
  bandwidth at the intermediate NPUs.
"""

from __future__ import annotations

from repro.collectives.base import CollectivePlan
from repro.config.system import EndpointKind, SystemConfig
from repro.core.engine import AceEngine
from repro.endpoint.base import Endpoint, PhaseWork
from repro.errors import ConfigurationError


class AceEndpoint(Endpoint):
    """Endpoint backed by the Accelerator Collectives Engine."""

    def __init__(self, system: SystemConfig) -> None:
        if system.endpoint is not EndpointKind.ACE:
            raise ConfigurationError(
                f"AceEndpoint requires an ACE system configuration, got {system.endpoint}"
            )
        super().__init__(system)
        self.engine = AceEngine(system)

    # ------------------------------------------------------------------
    # Capacity and configuration
    # ------------------------------------------------------------------
    def chunk_capacity(self) -> int:
        return self.engine.chunk_capacity()

    def configure(self, plan: CollectivePlan) -> None:
        self.engine.configure(plan)

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------
    def ingress(self, chunk_bytes: float, earliest_start: float) -> float:
        return self.engine.ingress(chunk_bytes, earliest_start)

    def process_phase(self, work: PhaseWork, earliest_start: float) -> float:
        return self.engine.process_phase(
            work.phase_name,
            work.send_bytes,
            work.reduce_bytes,
            work.forward_bytes,
            work.steps,
            earliest_start,
        )

    def egress(self, chunk_bytes: float, earliest_start: float) -> float:
        return self.engine.egress(chunk_bytes, earliest_start)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def memory_read_bytes(self) -> float:
        return self.engine.memory_read_bytes

    @property
    def memory_write_bytes(self) -> float:
        return self.engine.memory_write_bytes

    def reset(self) -> None:
        self.engine.reset()
        self.activity.reset()
