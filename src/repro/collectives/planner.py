"""Table-driven collective plan selection.

:func:`plan_collective` is the single entry point the rest of the simulator
uses: given a collective operation, a topology and an algorithm name (or
``"auto"``) it returns the :class:`~repro.collectives.base.CollectivePlan`
to execute.  Each algorithm is one :class:`AlgorithmSpec` row of a fixed
table, with a *capability predicate* (which operations and topology classes
it supports, plus node-count constraints such as halving-doubling's
power-of-two requirement), and plans are costed with a simple stage-time
model (:func:`estimate_plan_cost`), so

* an explicit ``algorithm=`` choice is honoured, raising a clear
  :class:`~repro.errors.CollectiveError` for unsupported (op, topology)
  pairings, and
* ``algorithm="auto"`` picks the cheapest feasible plan — which on the
  paper's 3D torus reproduces its methodology exactly: the hierarchical
  4-phase all-reduce and the direct XYZ-routed all-to-all win on their home
  turf (ties break toward the earlier table row, i.e. the paper's choices).

The algorithms, in table order:

==================  =======================================  =====================================
Name                Operations                               Topologies
==================  =======================================  =====================================
hierarchical        all_reduce, reduce_scatter, all_gather   Torus3D / Torus2D
direct              all_to_all                               Torus3D / Torus2D, switch, fc
ring                all_reduce, reduce_scatter, all_gather   any (flat ring over the fabric)
tree                all_reduce                               switch, fc
halving_doubling    all_reduce                               switch, fc (power-of-two sizes)
p2p                 send                                     any (single hop, fastest dimension)
==================  =======================================  =====================================

Plans are cached per (operation, algorithm, topology cache key, network)
because the training loop requests the same plan for every layer; topology
identity is by :meth:`~repro.network.topology.Topology.cache_key`, so two
topology classes sharing a node count never collide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.collectives.alltoall import direct_all_to_all_plan, single_hop_all_to_all_plan
from repro.collectives.base import CollectiveOp, CollectivePlan, PhaseSpec
from repro.collectives.halving_doubling import halving_doubling_plan
from repro.collectives.hierarchical import (
    hierarchical_all_gather_plan,
    hierarchical_all_reduce_plan,
    hierarchical_reduce_scatter_plan,
)
from repro.collectives.ring import flat_ring_plan
from repro.collectives.tree import double_binary_tree_plan
from repro.config.system import NetworkConfig
from repro.errors import CollectiveError
from repro.network.topology import SingleHopTopology, Topology, Torus3D

AUTO = "auto"

#: Reference payload for the cost model (bytes).  The absolute value is
#: irrelevant for ranking algorithms; 64 MB keeps bandwidth and latency terms
#: on realistic relative scales.
_COST_REFERENCE_BYTES = 64 * 1024 * 1024

#: Network parameters used to cost plans when the caller does not supply any.
_DEFAULT_NETWORK = NetworkConfig()


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class AlgorithmSpec:
    """One collective algorithm: a row of the planner's algorithm table.

    Attributes
    ----------
    name:
        Table key (what ``plan_collective(..., algorithm=...)`` accepts).
    ops:
        Collective operations the algorithm implements.
    supports:
        Capability predicate: returns ``None`` when the algorithm can run
        ``op`` on ``topology``, else a human-readable reason string.
    build:
        Plan constructor for a supported (op, topology) pairing; receives the
        network parameters so bandwidth-dependent choices (e.g. which torus
        dimension a flat ring is charged to) follow the costed network.
    """

    name: str
    ops: Tuple[CollectiveOp, ...]
    supports: Callable[[CollectiveOp, Topology], Optional[str]]
    build: Callable[[CollectiveOp, Topology, NetworkConfig], CollectivePlan]

    def rejection(self, op: CollectiveOp, topology: Topology) -> Optional[str]:
        """Why this algorithm cannot serve (op, topology), or None if it can."""
        if op not in self.ops:
            return (
                f"algorithm {self.name!r} does not implement {op.value} "
                f"(supported: {[o.value for o in self.ops]})"
            )
        return self.supports(op, topology)


#: Built plans keyed by (op, algorithm, topology cache key, network); "auto"
#: entries record the winning plan of a past selection.
_PLAN_CACHE: Dict[Tuple, CollectivePlan] = {}


def algorithms() -> Tuple[str, ...]:
    """Names of all algorithms, in table (auto tie-break) order."""
    return tuple(_ALGORITHMS)


def algorithm_implements(algorithm: str, op: Union[str, CollectiveOp]) -> bool:
    """Whether ``algorithm`` implements ``op`` (on any topology).

    Used by the executor to scope a pinned system-wide algorithm to the
    operations it actually implements (other operations fall back to auto
    selection).  Unknown names raise :class:`CollectiveError`.
    """
    spec = _ALGORITHMS.get(algorithm)
    if spec is None:
        raise CollectiveError(
            f"unknown collective algorithm {algorithm!r}; expected 'auto' "
            f"or one of {list(_ALGORITHMS)}"
        )
    return _normalize_op(op) in spec.ops


# ---------------------------------------------------------------------------
# Capability predicates
# ---------------------------------------------------------------------------


def _single_dimension(topology: Topology) -> Optional[str]:
    """Require a single-hop fabric (switch / fully-connected)."""
    if isinstance(topology, SingleHopTopology):
        return None
    return (
        f"requires a single-hop fabric (switch or fully-connected), "
        f"got {type(topology).__name__} {topology.name!r}"
    )


def _torus_only(op: CollectiveOp, topology: Topology) -> Optional[str]:
    """Hierarchical plans exploit the torus bandwidth hierarchy only."""
    if isinstance(topology, Torus3D):
        return None
    return (
        f"requires a torus topology, got {type(topology).__name__} "
        f"{topology.name!r}"
    )


def _direct_supports(op: CollectiveOp, topology: Topology) -> Optional[str]:
    """Direct all-to-all runs on tori (XYZ routed) and single-hop fabrics."""
    if isinstance(topology, Torus3D):
        return None
    return _single_dimension(topology)


def _ring_supports(op: CollectiveOp, topology: Topology) -> Optional[str]:
    # A flat logical ring can be embedded in every shipped topology: rings
    # trivially, switches and fully-connected fabrics via any node order,
    # tori via a Hamiltonian cycle.
    return None


def _tree_supports(op: CollectiveOp, topology: Topology) -> Optional[str]:
    """Trees need arbitrary peer links: single-hop fabrics only."""
    return _single_dimension(topology)


def _halving_doubling_supports(op: CollectiveOp, topology: Topology) -> Optional[str]:
    """Halving-doubling needs single-hop peers and a power-of-two count."""
    reason = _single_dimension(topology)
    if reason is not None:
        return reason
    if not _is_power_of_two(topology.num_nodes):
        return (
            f"halving-doubling requires a power-of-two node count, "
            f"got {topology.num_nodes}"
        )
    return None


def _p2p_supports(op: CollectiveOp, topology: Topology) -> Optional[str]:
    # A neighbour-to-neighbour send embeds in every fabric.
    return None


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _build_hierarchical(
    op: CollectiveOp, topology: Topology, network: NetworkConfig
) -> CollectivePlan:
    """The paper's topology-aware multi-phase torus plans (Section V)."""
    if op is CollectiveOp.ALL_REDUCE:
        return hierarchical_all_reduce_plan(topology)
    if op is CollectiveOp.REDUCE_SCATTER:
        return hierarchical_reduce_scatter_plan(topology)
    return hierarchical_all_gather_plan(topology)


def _build_direct(
    op: CollectiveOp, topology: Topology, network: NetworkConfig
) -> CollectivePlan:
    """Direct all-to-all: XYZ-routed on tori, single-hop elsewhere."""
    if isinstance(topology, Torus3D):
        return direct_all_to_all_plan(topology)
    return single_hop_all_to_all_plan(topology)


def _build_ring(
    op: CollectiveOp, topology: Topology, network: NetworkConfig
) -> CollectivePlan:
    """Flat ring over all NPUs, charged to the slowest dimension it crosses."""
    dims = topology.active_dimensions()
    if isinstance(topology, Torus3D) and len(dims) > 1:
        # A Hamiltonian ring over the torus crosses every link class; its
        # steady-state throughput is bound by the slowest one (the
        # inter-package dimensions under the Table V provisioning).
        dimension = min(dims, key=network.dimension_bandwidth_gbps)
    else:
        dimension = dims[0]
    return flat_ring_plan(op, topology.name, dimension, topology.num_nodes)


def _build_tree(
    op: CollectiveOp, topology: Topology, network: NetworkConfig
) -> CollectivePlan:
    """NCCL-style double binary tree on single-hop fabrics."""
    dimension = topology.active_dimensions()[0]
    return double_binary_tree_plan(dimension, topology.num_nodes, topology.name)


def _build_halving_doubling(
    op: CollectiveOp, topology: Topology, network: NetworkConfig
) -> CollectivePlan:
    """Recursive halving-doubling on power-of-two single-hop fabrics."""
    dimension = topology.active_dimensions()[0]
    return halving_doubling_plan(dimension, topology.num_nodes, topology.name)


def _build_p2p(
    op: CollectiveOp, topology: Topology, network: NetworkConfig
) -> CollectivePlan:
    """Point-to-point send for pipeline-stage activation traffic.

    One single-step phase injecting the whole payload on the fastest active
    dimension (pipeline neighbours are placed on the fastest links), so
    sends flow through the same chunking / admission / endpoint / fabric
    machinery as real collectives.
    """
    dims = topology.active_dimensions()
    if dims:
        dimension = max(dims, key=network.dimension_bandwidth_gbps)
    else:
        dimension = "local"
    phase = PhaseSpec(
        dimension=dimension,
        kind="send",
        ring_size=2,
        steps=1,
        bytes_sent_fraction=1.0,
        reduced_bytes_fraction=0.0,
        resident_fraction_in=1.0,
        resident_fraction_out=1.0,
    )
    return CollectivePlan(
        op=CollectiveOp.SEND,
        topology_name=topology.name,
        num_nodes=topology.num_nodes,
        phases=(phase,),
    )


#: The operations both the hierarchical and the flat-ring plans implement.
_BULK = (CollectiveOp.ALL_REDUCE, CollectiveOp.REDUCE_SCATTER, CollectiveOp.ALL_GATHER)

#: Every algorithm, in auto-selection tie-break order: a cost tie goes to the
#: earlier feasible row, so the paper's choices come first.
_ALGORITHMS: Dict[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in (
        AlgorithmSpec("hierarchical", _BULK, _torus_only, _build_hierarchical),
        AlgorithmSpec("direct", (CollectiveOp.ALL_TO_ALL,), _direct_supports, _build_direct),
        AlgorithmSpec("ring", _BULK, _ring_supports, _build_ring),
        AlgorithmSpec("tree", (CollectiveOp.ALL_REDUCE,), _tree_supports, _build_tree),
        AlgorithmSpec(
            "halving_doubling",
            (CollectiveOp.ALL_REDUCE,),
            _halving_doubling_supports,
            _build_halving_doubling,
        ),
        AlgorithmSpec("p2p", (CollectiveOp.SEND,), _p2p_supports, _build_p2p),
    )
}


# ---------------------------------------------------------------------------
# Cost model and selection
# ---------------------------------------------------------------------------


def estimate_plan_cost(
    plan: CollectivePlan,
    network: Optional[NetworkConfig] = None,
    payload_bytes: float = _COST_REFERENCE_BYTES,
) -> float:
    """Rough completion time (ns) of one collective of ``payload_bytes``.

    Sequential stages add; phases within a stage overlap (the slowest phase
    gates the stage).  Each phase pays its bytes over its dimension's
    per-NPU bandwidth plus one link latency per ring step.  This is a
    *ranking* model for auto-selection, not the event-driven simulator —
    endpoint costs are deliberately excluded because they are identical
    across algorithms for a given system.
    """
    network = network or _DEFAULT_NETWORK
    total = 0.0
    for stage in plan.stages():
        stage_time = 0.0
        for phase in stage:
            bandwidth = network.dimension_bandwidth_gbps(phase.dimension)
            latency = network.dimension_latency_ns(phase.dimension)
            serialization = phase.bytes_sent(payload_bytes) / max(bandwidth, 1e-9)
            stage_time = max(stage_time, serialization + phase.steps * latency)
        total += stage_time
    return total


def _normalize_op(op: Union[str, CollectiveOp]) -> CollectiveOp:
    """Coerce an op name to :class:`CollectiveOp` with a clear error."""
    if isinstance(op, CollectiveOp):
        return op
    try:
        return CollectiveOp(op)
    except ValueError:
        raise CollectiveError(
            f"unknown collective operation {op!r}; "
            f"expected one of {[o.value for o in CollectiveOp]}"
        ) from None


def _build_plan(
    spec: AlgorithmSpec,
    op: CollectiveOp,
    topology: Topology,
    network: Optional[NetworkConfig],
) -> CollectivePlan:
    """Build (or fetch) the plan for one algorithm under one network."""
    network = network or _DEFAULT_NETWORK
    key = (op, spec.name, topology.cache_key(), network)
    cached = _PLAN_CACHE.get(key)
    if cached is None:
        cached = _PLAN_CACHE[key] = spec.build(op, topology, network)
    return cached


def plan_collective(
    op: Union[str, CollectiveOp],
    topology: Topology,
    algorithm: str = AUTO,
    network: Optional[NetworkConfig] = None,
) -> CollectivePlan:
    """Return the plan for ``op`` on ``topology``.

    ``algorithm`` is either an algorithm name (the pairing is validated and a
    :class:`CollectiveError` explains any mismatch) or ``"auto"``, which
    selects the feasible algorithm with the cheapest
    :func:`estimate_plan_cost` under ``network`` (Table V parameters when
    omitted).  Results are cached; repeated calls for equivalent topologies
    return the identical plan object.
    """
    op = _normalize_op(op)
    if not isinstance(topology, Topology):
        raise CollectiveError(
            f"plan_collective needs a Topology instance, got {type(topology).__name__}"
        )
    if algorithm != AUTO:
        spec = _ALGORITHMS.get(algorithm)
        if spec is None:
            raise CollectiveError(
                f"unknown collective algorithm {algorithm!r}; expected 'auto' "
                f"or one of {list(_ALGORITHMS)}"
            )
        reason = spec.rejection(op, topology)
        if reason is not None:
            raise CollectiveError(
                f"algorithm {algorithm!r} cannot run {op.value} on "
                f"{topology.name}: {reason}"
            )
        return _build_plan(spec, op, topology, network)

    cost_network = network or _DEFAULT_NETWORK
    auto_key = (op, AUTO, topology.cache_key(), cost_network)
    cached = _PLAN_CACHE.get(auto_key)
    if cached is not None:
        return cached

    best: Optional[CollectivePlan] = None
    best_cost = float("inf")
    rejections: List[str] = []
    for spec in _ALGORITHMS.values():
        reason = spec.rejection(op, topology)
        if reason is not None:
            rejections.append(f"{spec.name}: {reason}")
            continue
        plan = _build_plan(spec, op, topology, network)
        cost = estimate_plan_cost(plan, cost_network)
        if cost < best_cost:  # strict: ties keep the earlier table row
            best, best_cost = plan, cost
    if best is None:
        raise CollectiveError(
            f"no registered algorithm can run {op.value} on {topology.name} "
            f"({'; '.join(rejections)})"
        )
    _PLAN_CACHE[auto_key] = best
    return best


def clear_plan_cache() -> None:
    """Drop all cached plans (useful in long-lived test sessions)."""
    _PLAN_CACHE.clear()
