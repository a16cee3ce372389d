"""TX / RX DMA engines.

In normal (baseline) operation the AFI's TX DMA moves outgoing data from main
memory to the AFI SRAM and the RX DMA moves received data back to main memory.
With ACE activated the same DMAs move whole chunks between main memory and the
ACE SRAM once per collective instead of once per step (Fig. 7, components #2
and #4).

A DMA transfer is rate-limited by the slowest of: the DMA engine itself, the
NPU-AFI bus, and the HBM partition it reads from / writes to.  The engine
reserves all three so each one queues its own traffic; the slowest leg sets
the finish time.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.memory.bus import Bus
from repro.memory.hbm import MemoryPartition
from repro.sim.resources import BandwidthResource


class DmaEngine:
    """One direction of DMA between main memory and an endpoint SRAM."""

    def __init__(
        self,
        name: str,
        bandwidth_gbps: float,
        memory: Optional[MemoryPartition] = None,
        bus: Optional[Bus] = None,
        direction: str = "tx",
    ) -> None:
        if bandwidth_gbps <= 0:
            raise ConfigurationError(f"DMA {name!r} needs positive bandwidth")
        if direction not in ("tx", "rx"):
            raise ConfigurationError(f"DMA direction must be 'tx' or 'rx', got {direction!r}")
        self.name = name
        self.direction = direction
        self.memory = memory
        self.bus = bus
        self._engine = BandwidthResource(name=f"dma[{name}]", bandwidth_gbps=bandwidth_gbps)

    def transfer(self, num_bytes: float, earliest_start: float) -> Tuple[float, float]:
        """Move ``num_bytes``; returns the ``(start, finish)`` pair of the slowest leg.

        Legs are booked engine, bus, memory; on a tie in finish time the
        earlier leg wins.
        """
        slowest = self._engine.reserve_times(num_bytes, earliest_start)
        if self.bus is not None:
            leg = self.bus.transfer(num_bytes, earliest_start)
            if leg[1] > slowest[1]:
                slowest = leg
        if self.memory is not None:
            if self.direction == "tx":
                leg = self.memory.read(num_bytes, earliest_start)
            else:
                leg = self.memory.write(num_bytes, earliest_start)
            if leg[1] > slowest[1]:
                slowest = leg
        return slowest
