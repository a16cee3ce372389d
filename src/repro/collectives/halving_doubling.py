"""Recursive halving-doubling all-reduce.

An alternative single-dimension collective algorithm (mentioned in
Section IV-H as one of the patterns ACE's FSMs can be programmed for).  The
plan builder lets the simulator compare algorithm choices on switch-like
topologies where every pair of endpoints is one hop apart.

The algorithm requires a power-of-two node count: ``log2(n)`` recursive
halving steps (reduce-scatter) followed by ``log2(n)`` recursive doubling
steps (all-gather).  The total bytes injected per node, ``2 (n-1)/n`` per
payload byte, match the ring algorithm, but the step count is logarithmic,
which favours latency-bound (small) collectives.
"""

from __future__ import annotations

from repro.collectives.base import CollectiveOp, CollectivePlan, PhaseSpec
from repro.errors import CollectiveError


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def halving_doubling_plan(
    dimension: str, num_nodes: int, topology_name: str = ""
) -> CollectivePlan:
    """Plan for a halving-doubling all-reduce over a single dimension.

    ``topology_name`` labels the plan (defaults to ``hd-<n>``).
    """
    topology_name = topology_name or f"hd-{num_nodes}"
    if num_nodes < 2:
        return CollectivePlan(
            op=CollectiveOp.ALL_REDUCE,
            topology_name=topology_name,
            num_nodes=max(1, num_nodes),
            phases=(),
        )
    if not _is_power_of_two(num_nodes):
        raise CollectiveError(
            f"halving-doubling requires a power-of-two node count, got {num_nodes}"
        )
    n = num_nodes
    sent = (n - 1) / n
    phases = (
        PhaseSpec(
            dimension=dimension,
            kind="reduce_scatter",
            ring_size=n,
            steps=n.bit_length() - 1,
            bytes_sent_fraction=sent,
            reduced_bytes_fraction=sent,
            resident_fraction_in=1.0,
            resident_fraction_out=1.0 / n,
            parallel_group=0,
        ),
        PhaseSpec(
            dimension=dimension,
            kind="all_gather",
            ring_size=n,
            steps=n.bit_length() - 1,
            bytes_sent_fraction=sent,
            reduced_bytes_fraction=0.0,
            resident_fraction_in=1.0 / n,
            resident_fraction_out=1.0,
            parallel_group=1,
        ),
    )
    return CollectivePlan(
        op=CollectiveOp.ALL_REDUCE,
        topology_name=topology_name,
        num_nodes=num_nodes,
        phases=phases,
    )
