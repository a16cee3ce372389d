"""Ideal endpoint: received data is processed "magically" within one cycle.

Table VI: the ideal system has no endpoint-side latency in the collective
path, so the collective completion time is purely a property of the network.
It is the upper bound every other configuration is compared against
(Figs. 5, 10 and 11).
"""

from __future__ import annotations

from repro.config.system import SystemConfig
from repro.endpoint.base import Endpoint, PhaseWork
from repro.units import cycles_to_ns


class IdealEndpoint(Endpoint):
    """Zero-cost endpoint processing (one cycle per stage)."""

    #: Number of chunks kept in flight.
    PIPELINE_DEPTH = 256

    def __init__(self, system: SystemConfig) -> None:
        super().__init__(system)
        self._cycle_ns = cycles_to_ns(1.0, system.compute.frequency_mhz)

    def chunk_capacity(self) -> int:
        """The fixed pipeline depth."""
        return self.PIPELINE_DEPTH

    def ingress(self, chunk_bytes: float, earliest_start: float) -> float:
        """One cycle to stage the chunk."""
        return earliest_start + self._cycle_ns

    def phase_cost(self, work: PhaseWork) -> None:
        """Nothing: every phase costs the same one cycle."""
        return None

    def process_phase(self, cost: None, earliest_start: float) -> float:
        """One cycle to prepare the phase's traffic."""
        return earliest_start + self._cycle_ns

    def egress(self, chunk_bytes: float, earliest_start: float) -> float:
        """One cycle to commit the chunk."""
        return earliest_start + self._cycle_ns

    @property
    def memory_read_bytes(self) -> float:
        """Always zero: the ideal endpoint touches no HBM."""
        return 0.0

    @property
    def memory_write_bytes(self) -> float:
        """Always zero: the ideal endpoint touches no HBM."""
        return 0.0
