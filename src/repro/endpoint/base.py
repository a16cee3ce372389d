"""Endpoint interface shared by the baseline, ACE and ideal models."""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.collectives.base import CollectivePlan, PhaseSpec
from repro.config.system import SystemConfig
from repro.sim.trace import IntervalTracer


@dataclass(frozen=True)
class PhaseWork:
    """The endpoint-visible work of one chunk-phase.

    All byte quantities are absolute (already scaled by the chunk size).
    """

    phase_index: int
    phase_name: str
    dimension: str
    kind: str
    steps: int
    send_bytes: float
    reduce_bytes: float
    forward_bytes: float
    is_first: bool
    is_last: bool

    @classmethod
    def from_phase(
        cls,
        phase: PhaseSpec,
        phase_index: int,
        chunk_bytes: float,
        is_first: bool,
        is_last: bool,
    ) -> "PhaseWork":
        name = "all_to_all" if phase.kind == "all_to_all" else f"phase{phase_index}"
        return cls(
            phase_index=phase_index,
            phase_name=name,
            dimension=phase.dimension,
            kind=phase.kind,
            steps=phase.steps,
            send_bytes=phase.bytes_sent(chunk_bytes),
            reduce_bytes=phase.bytes_reduced(chunk_bytes),
            forward_bytes=phase.bytes_forwarded(chunk_bytes),
            is_first=is_first,
            is_last=is_last,
        )


class Endpoint(abc.ABC):
    """Per-NPU collective-processing model.

    The collective executor drives every chunk through three stages:

    1. :meth:`ingress` — make the chunk available to the communication path,
    2. :meth:`process_phase` — per phase, prepare ``send_bytes`` for link
       injection (including any reductions and forwarding),
    3. :meth:`egress` — commit the finished chunk back to main memory.

    Each method returns the time at which the stage completes; resource
    contention between chunks is handled inside the endpoint via its own
    FIFO-queued resources.
    """

    def __init__(self, system: SystemConfig) -> None:
        self.system = system
        #: Intervals during which at least one chunk is in flight (Fig. 9b).
        self.activity = IntervalTracer(f"endpoint-{system.name}")

    # ------------------------------------------------------------------
    # Capacity and configuration
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def chunk_capacity(self) -> int:
        """Maximum number of chunks that may be in flight simultaneously."""

    def configure(self, plan: CollectivePlan) -> None:
        """Prepare the endpoint for a collective plan (default: no-op)."""

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def ingress(self, chunk_bytes: float, earliest_start: float) -> float:
        """Return the time at which the chunk is staged for its first phase."""

    @abc.abstractmethod
    def process_phase(self, work: PhaseWork, earliest_start: float) -> float:
        """Return the time at which the phase's outgoing data is injection-ready."""

    @abc.abstractmethod
    def egress(self, chunk_bytes: float, earliest_start: float) -> float:
        """Return the time at which the chunk's result is back in main memory."""

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def memory_read_bytes(self) -> float:
        """HBM read traffic generated by collective processing so far."""

    @property
    @abc.abstractmethod
    def memory_write_bytes(self) -> float:
        """HBM write traffic generated by collective processing so far."""

    def utilization(self, horizon_ns: float) -> float:
        """Fraction of ``horizon_ns`` with at least one chunk in flight."""
        if horizon_ns <= 0:
            return 0.0
        return min(1.0, self.activity.busy_time(0.0, horizon_ns) / horizon_ns)

    @abc.abstractmethod
    def reset(self) -> None:
        """Clear all internal resources and statistics."""
