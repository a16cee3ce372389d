"""Collective plan datatypes.

A :class:`CollectivePlan` describes, for the representative NPU, how one
collective operation of ``S`` payload bytes decomposes into phases over the
torus dimensions.  All byte quantities in a :class:`PhaseSpec` are expressed
as *fractions of the payload* so a single plan can be reused for every chunk
size of that collective.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import CollectiveError
from repro.units import left_sum


class CollectiveOp(str, enum.Enum):
    """Collective operations used in distributed DNN training (Fig. 3)."""

    ALL_REDUCE = "all_reduce"
    ALL_TO_ALL = "all_to_all"
    REDUCE_SCATTER = "reduce_scatter"
    ALL_GATHER = "all_gather"
    #: Point-to-point transfer between pipeline-stage neighbours.  Not a true
    #: collective — the planner's ``p2p`` row plans it as a single one-step
    #: phase — but it rides the same executor/endpoint/fabric
    #: path so activation sends share chunking, admission and accounting with
    #: the real collectives.
    SEND = "send"


@dataclass(frozen=True)
class PhaseSpec:
    """One phase of a collective plan, bound to a single torus dimension.

    Attributes
    ----------
    dimension:
        Torus dimension whose ring carries this phase ('local', 'vertical',
        'horizontal') or 'switch' for switch topologies.
    kind:
        Algorithmic role of the phase ('reduce_scatter', 'all_gather',
        'all_reduce', 'all_to_all').
    ring_size:
        Number of NPUs participating in the phase's ring.
    steps:
        Number of sequential ring steps (each pays link latency once).
    bytes_sent_fraction:
        Bytes this NPU injects on the dimension during the phase, per payload
        byte of the chunk.
    reduced_bytes_fraction:
        Bytes requiring a reduction (sum) on receipt, per payload byte.
    resident_fraction_in / resident_fraction_out:
        Fraction of the original payload resident on this NPU when the phase
        starts / ends (shrinks through reduce-scatter, grows through
        all-gather).
    forwarded_bytes_fraction:
        Bytes this NPU forwards on behalf of other NPUs (multi-hop traffic,
        non-zero only for all-to-all on multi-hop rings).
    parallel_group:
        Phases sharing a group index execute concurrently (all-to-all spreads
        over every dimension at once); distinct group indices execute in
        order.
    """

    dimension: str
    kind: str
    ring_size: int
    steps: int
    bytes_sent_fraction: float
    reduced_bytes_fraction: float
    resident_fraction_in: float
    resident_fraction_out: float
    forwarded_bytes_fraction: float = 0.0
    parallel_group: int = 0

    def __post_init__(self) -> None:
        if self.ring_size < 1:
            raise CollectiveError(f"ring_size must be >= 1, got {self.ring_size}")
        if self.steps < 0:
            raise CollectiveError(f"steps must be >= 0, got {self.steps}")
        for name in (
            "bytes_sent_fraction",
            "reduced_bytes_fraction",
            "resident_fraction_in",
            "resident_fraction_out",
            "forwarded_bytes_fraction",
        ):
            if getattr(self, name) < 0:
                raise CollectiveError(f"{name} must be non-negative")

    def bytes_sent(self, payload_bytes: float) -> float:
        """Bytes this NPU injects during the phase for a ``payload_bytes`` chunk."""
        return payload_bytes * self.bytes_sent_fraction

    def bytes_reduced(self, payload_bytes: float) -> float:
        """Bytes requiring a reduction on receipt for a ``payload_bytes`` chunk."""
        return payload_bytes * self.reduced_bytes_fraction

    def bytes_forwarded(self, payload_bytes: float) -> float:
        """Bytes forwarded on behalf of other NPUs for a ``payload_bytes`` chunk."""
        return payload_bytes * self.forwarded_bytes_fraction


@dataclass(frozen=True)
class CollectivePlan:
    """A complete per-NPU execution plan for one collective operation."""

    op: CollectiveOp
    topology_name: str
    num_nodes: int
    phases: Tuple[PhaseSpec, ...]

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise CollectiveError("num_nodes must be >= 1")
        if not self.phases and self.num_nodes > 1:
            raise CollectiveError("a multi-node collective plan needs at least one phase")

    # ------------------------------------------------------------------
    # Aggregate accounting
    # ------------------------------------------------------------------
    @property
    def total_injected_fraction(self) -> float:
        """Total bytes injected into the network per payload byte (e.g. 2.25 for 4x4x4 all-reduce)."""
        return left_sum(p.bytes_sent_fraction for p in self.phases)

    def per_dimension_injected_fraction(self) -> Dict[str, float]:
        """Bytes injected per payload byte, broken down by torus dimension."""
        out: Dict[str, float] = {}
        for phase in self.phases:
            out[phase.dimension] = out.get(phase.dimension, 0.0) + phase.bytes_sent_fraction
        return out

    def stages(self) -> List[List[PhaseSpec]]:
        """Phases grouped by parallel group, in execution order."""
        groups: Dict[int, List[PhaseSpec]] = {}
        for phase in self.phases:
            groups.setdefault(phase.parallel_group, []).append(phase)
        return [groups[g] for g in sorted(groups)]
