"""Double-binary-tree all-reduce.

NCCL's large-scale alternative to rings (mentioned in the paper's background
section).  Two complementary binary trees are overlaid on the nodes; each tree
carries half the payload through a reduce (leaves to root) followed by a
broadcast (root to leaves).  The plan builder models the bandwidth/step
behaviour for a single-dimension fabric.

This algorithm is included as one of the "various collective algorithm
support" points of Table II — ACE, being endpoint-based, can run it on any
topology — and is exercised by the ablation benchmarks.
"""

from __future__ import annotations

from repro.collectives.base import CollectiveOp, CollectivePlan, PhaseSpec


def double_binary_tree_plan(
    dimension: str, num_nodes: int, topology_name: str = ""
) -> CollectivePlan:
    """Plan for a double-binary-tree all-reduce over a single dimension.

    Each node sends its (half-payload) contribution up one tree and forwards
    the broadcast down, for both trees: roughly 2 payload bytes injected per
    payload byte for interior nodes, with ``2 * ceil(log2(n))`` sequential
    steps.  ``topology_name`` labels the plan (defaults to ``dbt-<n>``).
    """
    topology_name = topology_name or f"dbt-{num_nodes}"
    if num_nodes < 2:
        return CollectivePlan(
            op=CollectiveOp.ALL_REDUCE,
            topology_name=topology_name,
            num_nodes=max(1, num_nodes),
            phases=(),
        )
    depth = (num_nodes - 1).bit_length()
    phases = (
        PhaseSpec(
            dimension=dimension,
            kind="reduce_scatter",
            ring_size=num_nodes,
            steps=depth,
            bytes_sent_fraction=1.0,
            reduced_bytes_fraction=1.0,
            resident_fraction_in=1.0,
            resident_fraction_out=1.0,
            parallel_group=0,
        ),
        PhaseSpec(
            dimension=dimension,
            kind="all_gather",
            ring_size=num_nodes,
            steps=depth,
            bytes_sent_fraction=1.0,
            reduced_bytes_fraction=0.0,
            resident_fraction_in=1.0,
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
