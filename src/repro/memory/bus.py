"""NPU-AFI bus model.

Table V gives a 500 GB/s bus between the NPU (and its memory) and the AFI.
Every byte the endpoint injects into, or receives from, the fabric crosses
this bus; the paper extends ASTRA-sim to model the transaction scheduling and
queuing delays of this path, which is what the fixed per-transaction overhead
models here.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import ConfigurationError
from repro.sim.resources import BandwidthResource


class Bus:
    """A FIFO-serialised bus with fixed per-transaction overhead."""

    def __init__(
        self,
        name: str,
        bandwidth_gbps: float,
        transaction_overhead_ns: float = 0.0,
    ) -> None:
        if bandwidth_gbps <= 0:
            raise ConfigurationError(f"bus {name!r} needs positive bandwidth")
        self.name = name
        self.bandwidth_gbps = bandwidth_gbps
        self.transaction_overhead_ns = transaction_overhead_ns
        self._pipe = BandwidthResource(
            name=f"bus[{name}]",
            bandwidth_gbps=bandwidth_gbps,
            latency_ns=transaction_overhead_ns,
        )

    def transfer(self, num_bytes: float, earliest_start: float) -> Tuple[float, float]:
        """Move ``num_bytes`` across the bus (FIFO with earlier transfers).

        Returns the ``(start, finish)`` pair; ``finish`` includes the
        transaction overhead.
        """
        return self._pipe.reserve_times(num_bytes, earliest_start)
