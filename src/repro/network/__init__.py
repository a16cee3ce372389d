"""Accelerator Fabric (AF) network models.

Execution backends implement the :class:`~repro.network.backend.NetworkBackend`
protocol and are selected by name (``network_backend="symmetric" |
"detailed" | "hybrid"``) from the fixed :data:`NETWORK_BACKENDS` table
through :func:`make_network_backend`:

* :class:`~repro.network.symmetric.SymmetricFabric` (``"symmetric"``) — a
  single representative-node analytical model that exploits the symmetry of
  the paper's topologies and collectives.  Used for the large scaling sweeps.
* :class:`~repro.network.detailed.DetailedBackend` (``"detailed"``) — the
  representative NPU's physical port links with per-link FIFO serialization
  and hop-by-hop store-and-forward contention.  Used for small-system
  validation of the symmetric model and per-link observability.
* :class:`~repro.network.hybrid.HybridBackend` (``"hybrid"``) — per-link
  detail on the most-contended dimension only, aggregated pipes on the
  rest.  Scales past the detailed backend's cap while keeping the hot
  dimension's contention observable.

Infeasible combinations raise :class:`~repro.errors.ConfigurationError`
with the offending backend and topology named: unknown backend names, and a
``detailed`` (``hybrid``) request on a platform larger than
:data:`MAX_DETAILED_NPUS` (:data:`MAX_HYBRID_NPUS`), where per-message
simulation would be orders of magnitude slower than the symmetric model
without changing any conclusion — use ``symmetric``, or raise the cap
knowingly.
"""

from typing import Dict, Type

from repro.config.system import NetworkConfig
from repro.errors import ConfigurationError
from repro.network.topology import (
    FullyConnected,
    RingTopology,
    SwitchTopology,
    Topology,
    Torus2D,
    Torus3D,
    topology_from_spec,
)
from repro.network.backend import NetworkBackend
from repro.network.routing import ring_distance
from repro.network.detailed import DetailedBackend
from repro.network.hybrid import HybridBackend, most_contended_dimension
from repro.network.symmetric import SymmetricFabric

#: Every network model, by the name ``SystemConfig.network_backend`` and
#: ``SimJob.backend`` give it.
NETWORK_BACKENDS: Dict[str, Type[NetworkBackend]] = {
    "symmetric": SymmetricFabric,
    "detailed": DetailedBackend,
    "hybrid": HybridBackend,
}

#: Hard cap for ``backend="detailed"``.  Above this size a per-message,
#: per-link simulation is infeasible for the sweeps this repo runs;
#: :func:`make_network_backend` raises a ConfigurationError instead of
#: silently taking hours.
MAX_DETAILED_NPUS = 512

#: Hard cap for ``backend="hybrid"``.  Hybrid simulates per-link detail on a
#: single dimension, so it scales far past :data:`MAX_DETAILED_NPUS`, but its
#: hot-dimension event count still grows with ring length; past this size
#: use ``symmetric``.
MAX_HYBRID_NPUS = 2048


def make_network_backend(
    name: str, topology: Topology, network: NetworkConfig
) -> NetworkBackend:
    """Build the backend ``name`` of :data:`NETWORK_BACKENDS`.

    Infeasible combinations raise :class:`~repro.errors.ConfigurationError`:
    unknown names, or a ``detailed`` (``hybrid``) request on a platform
    larger than :data:`MAX_DETAILED_NPUS` (:data:`MAX_HYBRID_NPUS`).
    """
    if name not in NETWORK_BACKENDS:
        raise ConfigurationError(
            f"unknown network backend {name!r}; expected one of {list(NETWORK_BACKENDS)}"
        )
    if name == "detailed" and topology.num_nodes > MAX_DETAILED_NPUS:
        raise ConfigurationError(
            f"network backend 'detailed' is infeasible for topology "
            f"{topology.name!r} with {topology.num_nodes} NPUs "
            f"(cap: {MAX_DETAILED_NPUS}); use backend='hybrid' to keep the "
            f"most-contended dimension at per-link detail, or 'symmetric' "
            f"for large sweeps — the paper validates the fast models against "
            f"the detailed one on small systems for exactly this reason"
        )
    if name == "hybrid" and topology.num_nodes > MAX_HYBRID_NPUS:
        raise ConfigurationError(
            f"network backend 'hybrid' is infeasible for topology "
            f"{topology.name!r} with {topology.num_nodes} NPUs "
            f"(cap: {MAX_HYBRID_NPUS}); use backend='symmetric' for large "
            f"sweeps — the paper validates the fast models against the "
            f"detailed one on small systems for exactly this reason"
        )
    return NETWORK_BACKENDS[name](topology, network)


__all__ = [
    "FullyConnected",
    "RingTopology",
    "SwitchTopology",
    "Topology",
    "Torus2D",
    "Torus3D",
    "topology_from_spec",
    "MAX_DETAILED_NPUS",
    "MAX_HYBRID_NPUS",
    "NETWORK_BACKENDS",
    "NetworkBackend",
    "make_network_backend",
    "ring_distance",
    "DetailedBackend",
    "HybridBackend",
    "SymmetricFabric",
    "most_contended_dimension",
]
