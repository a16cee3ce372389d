"""Collective communication algorithms as performance plans.

Each algorithm is a plan builder producing a
:class:`~repro.collectives.base.CollectivePlan`: the per-phase byte/step
accounting the simulator uses to charge endpoint processing, memory traffic
and link occupancy.  (Step-by-step functional implementations over numpy
arrays, which check that every node ends with the right data, live with the
tests in ``tests/oracles.py``.)  Plans are selected by the table-driven
:func:`~repro.collectives.planner.plan_collective`: each algorithm
(hierarchical, direct, ring, tree, halving-doubling, p2p) is one table row
with a capability predicate and is costed per topology, so explicit choices
are validated and ``algorithm="auto"`` picks the cheapest feasible plan —
the paper's hierarchical 4-phase all-reduce and XYZ-routed direct all-to-all
on the 3D torus.
"""

from repro.collectives.base import CollectiveOp, CollectivePlan, PhaseSpec
from repro.collectives.planner import (
    AlgorithmSpec,
    algorithms,
    estimate_plan_cost,
    plan_collective,
)
from repro.collectives.hierarchical import hierarchical_all_reduce_plan
from repro.collectives.ring import (
    flat_ring_plan,
    ring_all_gather_phase,
    ring_all_reduce_phase,
    ring_reduce_scatter_phase,
)
from repro.collectives.alltoall import direct_all_to_all_plan, single_hop_all_to_all_plan

__all__ = [
    "CollectiveOp",
    "CollectivePlan",
    "PhaseSpec",
    "AlgorithmSpec",
    "algorithms",
    "estimate_plan_cost",
    "plan_collective",
    "hierarchical_all_reduce_plan",
    "flat_ring_plan",
    "ring_all_gather_phase",
    "ring_all_reduce_phase",
    "ring_reduce_scatter_phase",
    "direct_all_to_all_plan",
    "single_hop_all_to_all_plan",
]
