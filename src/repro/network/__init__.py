"""Accelerator Fabric (AF) network models.

Execution backends implement the :class:`~repro.network.backend.NetworkBackend`
protocol and are selected by name (``network_backend="symmetric" |
"detailed" | "hybrid" | "auto"``) through :func:`~repro.network.backend.make_network_backend`:

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
"""

from repro.network.topology import (
    FullyConnected,
    RingTopology,
    SwitchTopology,
    Topology,
    Torus2D,
    Torus3D,
    topology_from_spec,
)
from repro.network.backend import (
    AUTO_BACKEND,
    DEFAULT_AUTO_NPU_THRESHOLD,
    MAX_DETAILED_NPUS,
    MAX_HYBRID_NPUS,
    NetworkBackend,
    backend_names,
    make_network_backend,
    register_backend,
    resolve_backend_name,
    validate_backend_name,
)
from repro.network.routing import ring_distance
from repro.network.detailed import DetailedBackend
from repro.network.hybrid import HybridBackend, most_contended_dimension
from repro.network.symmetric import SymmetricFabric

__all__ = [
    "FullyConnected",
    "RingTopology",
    "SwitchTopology",
    "Topology",
    "Torus2D",
    "Torus3D",
    "topology_from_spec",
    "AUTO_BACKEND",
    "DEFAULT_AUTO_NPU_THRESHOLD",
    "MAX_DETAILED_NPUS",
    "MAX_HYBRID_NPUS",
    "NetworkBackend",
    "backend_names",
    "make_network_backend",
    "register_backend",
    "resolve_backend_name",
    "validate_backend_name",
    "ring_distance",
    "DetailedBackend",
    "HybridBackend",
    "SymmetricFabric",
    "most_contended_dimension",
]
