"""ACE reduction ALUs.

Section IV-I: four wide ALUs, each reducing 16 x FP32 or 32 x FP16 elements
per cycle over 64-byte operand buses, fed directly from the SRAM.  The array
behaves as a streaming reducer with an aggregate throughput of
``num_alus x 64 B x f`` (≈318 GB/s at 1245 MHz for the default configuration),
which comfortably exceeds the per-NPU network bandwidth so reductions are
never the collective bottleneck — exactly the design intent.
"""

from __future__ import annotations

from repro.config.system import AceConfig
from repro.errors import ResourceError


class AluArray:
    """Streaming reduction unit array.

    The array books no time of its own: the reduction cost is part of the
    FSM occupancy the engine charges per chunk-phase
    (:meth:`repro.core.engine.AceEngine.process_phase`).  It counts the
    bytes it reduces.
    """

    def __init__(self, config: AceConfig) -> None:
        throughput = config.alu_throughput_gbps
        if throughput <= 0:
            raise ResourceError("ALU throughput must be positive")
        self.config = config
        self.throughput_gbps = throughput
        self._reduced_bytes = 0.0

    def reduce(self, num_bytes: float) -> None:
        """Count ``num_bytes`` of received data streamed through the reducers."""
        if num_bytes < 0:
            raise ResourceError("cannot reduce a negative number of bytes")
        self._reduced_bytes += num_bytes

    @property
    def reduced_bytes(self) -> float:
        return self._reduced_bytes

    def reset(self) -> None:
        self._reduced_bytes = 0.0
