"""Cross-topology x cross-algorithm collective sweep (planner extension).

Not a paper figure: the paper fixes one pairing — hierarchical 4-phase
all-reduce and direct all-to-all on the 3D torus (Section V) — and this
experiment opens that choice up.  For every platform size it enumerates the
shipped fabrics (the canonical ``LxVxH`` torus, the degenerate 2D torus, a
flat ring, a switch group, and a fully-connected fabric), asks the planner
which algorithms can run the collective on each
(:func:`repro.collectives.planner.supported_algorithms`), and drives every
feasible (topology x algorithm x system) cell through the
:class:`~repro.runner.SweepRunner` as one parallel, cached batch of
network-drive jobs.

The headline result — asserted by ``tests/test_cross_topology.py`` — is that
auto-selection reproduces the paper's methodology on its home turf: on the
torus, the hierarchical algorithm beats the flat ring embedding, and on
single-hop fabrics the logarithmic algorithms win for large node counts.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.collectives.planner import supported_algorithms
from repro.experiments.common import topology_for
from repro.network.topology import topology_from_spec
from repro.runner import SimJob, network_drive_job
from repro.units import MB

#: Default payload: large enough to be bandwidth-bound, small enough to be fast.
DEFAULT_PAYLOAD_BYTES = 8 * MB
DEFAULT_CHUNK_BYTES = 1 * MB


def _square_factors(n: int) -> Tuple[int, int]:
    """The most balanced ``(V, H)`` factorisation of ``n`` for a 2D torus."""
    best = (1, n)
    for v in range(2, int(n**0.5) + 1):
        if n % v == 0:
            best = (v, n // v)
    return best


def fabric_specs_for(num_npus: int) -> List[str]:
    """Topology spec strings compared at one platform size.

    The canonical paper torus, the balanced 2D torus, a flat ring, a switch
    group and a fully-connected fabric — all with ``num_npus`` NPUs.
    """
    torus = topology_for(num_npus)
    v, h = _square_factors(num_npus)
    return [
        f"torus:{torus.local}x{torus.vertical}x{torus.horizontal}",
        f"torus2d:{v}x{h}",
        f"ring:{num_npus}",
        f"switch:{num_npus}",
        f"fc:{num_npus}",
    ]


def cross_topology_jobs(
    op: str = "all_reduce",
    sizes: Sequence[int] = (16,),
    systems: Sequence[str] = ("ace",),
    payload_bytes: int = DEFAULT_PAYLOAD_BYTES,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> List[SimJob]:
    """Network-drive jobs for every feasible (size, fabric, algorithm, system) cell.

    Infeasible pairings (e.g. halving-doubling on a 20-NPU switch, or any
    hierarchical plan off the torus) are skipped up front using the planner's
    capability predicates, so the batch only contains cells that can run.
    """
    jobs: List[SimJob] = []
    for num_npus in sizes:
        for spec in fabric_specs_for(num_npus):
            topology = topology_from_spec(spec)
            for algorithm in supported_algorithms(op, topology):
                for system in systems:
                    jobs.append(
                        network_drive_job(
                            system,
                            payload_bytes,
                            fabric=spec,
                            algorithm=algorithm,
                            chunk_bytes=chunk_bytes,
                            op=op,
                        )
                    )
    return jobs
