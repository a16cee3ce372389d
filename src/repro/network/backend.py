"""Pluggable network-model backends.

The paper runs its evaluation on two network models: a fast symmetric-node
analytical model (used for every large sweep) and a detailed per-link
simulation (used to validate the fast model on small systems).  This module
is the seam that makes the choice explicit: every network model implements
the :class:`NetworkBackend` protocol, registers itself under a name, and the
rest of the simulator — the collective executor, the training loop, the job
specs — selects one purely by that name.

Protocol
--------
A backend answers one question for the representative NPU: *"if I inject
``num_bytes`` on fabric dimension ``d`` starting no earlier than ``t``,
walking ``steps`` ring steps, when does the transfer start and finish?"*
(:meth:`NetworkBackend.reserve`).  Around that it exposes the observability
surface the training loop reports on: injected bytes, link utilization, a
windowed utilization series, and the time of last activity.

Registered backends
-------------------
==========  ================================================================
Name        Model
==========  ================================================================
symmetric   :class:`~repro.network.symmetric.SymmetricFabric` — one
            aggregated FIFO pipe per fabric dimension; the paper's fast
            analytical model, exact for symmetric workloads.
detailed    :class:`~repro.network.detailed.DetailedBackend` — per-link
            FIFO serialization over the representative NPU's physical ports
            with hop-by-hop (per-ring-step) store-and-forward contention.
hybrid      :class:`~repro.network.hybrid.HybridBackend` — per-link detail
            on the most-contended dimension only, aggregated pipes on the
            rest; near-detailed fidelity at near-symmetric cost.
==========  ================================================================

``"auto"`` resolves by system size: ``detailed`` at or below a configurable
NPU threshold (:data:`DEFAULT_AUTO_NPU_THRESHOLD`), ``hybrid`` up to
:data:`MAX_HYBRID_NPUS`, and ``symmetric`` above that — the paper's own
methodology (validate small, sweep large), with the hybrid rung keeping
per-link contention observable at mid-scale now that the detailed hot path
is coalesced.

Infeasible combinations raise :class:`~repro.errors.ConfigurationError`
with the offending backend and topology named: unknown backend names, a
non-positive auto threshold, and an explicit ``detailed`` (``hybrid``)
request on a platform larger than :data:`MAX_DETAILED_NPUS`
(:data:`MAX_HYBRID_NPUS`), where per-message simulation would be orders of
magnitude slower than the symmetric model without changing any conclusion —
use ``symmetric``, or raise the cap knowingly.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Type

from repro.config.system import NetworkConfig
from repro.errors import ConfigurationError
from repro.network.topology import Topology
from repro.sim.resources import Reservation

#: Backend name that defers the choice to the size heuristic.
AUTO_BACKEND = "auto"


def mean_utilization(values: Iterable[float]) -> float:
    """Mean of per-dimension utilizations, added strictly left to right.

    Not :func:`sum`: Python 3.12 made ``sum()`` over floats compensated,
    which moves the last bit of some means.  This order gives the same bits
    on every Python version.
    """
    total = 0.0
    count = 0
    for value in values:
        total += value
        count += 1
    return total / count


#: "auto" uses the detailed per-link model up to this many NPUs (the paper
#: validates on small systems and sweeps with the fast model).  Raised from
#: 32 once the detailed hot path gained message coalescing and batched
#: reservations — detailed is now within ~2x of symmetric wall time at this
#: scale.  Between the threshold and :data:`MAX_HYBRID_NPUS`, "auto" picks
#: the hybrid backend; above that, symmetric.
DEFAULT_AUTO_NPU_THRESHOLD = 64

#: Hard cap for explicit ``backend="detailed"`` requests.  Above this size a
#: per-message, per-link simulation is infeasible for the sweeps this repo
#: runs; :func:`make_network_backend` raises a ConfigurationError instead of
#: silently taking hours.
MAX_DETAILED_NPUS = 512

#: Hard cap for explicit ``backend="hybrid"`` requests.  Hybrid simulates
#: per-link detail on a single dimension, so it scales far past
#: :data:`MAX_DETAILED_NPUS`, but its hot-dimension event count still grows
#: with ring length; past this size use ``symmetric``.
MAX_HYBRID_NPUS = 2048


class NetworkBackend(abc.ABC):
    """Protocol every network model implements.

    A backend is constructed for one ``(topology, network)`` pairing and is
    driven by the collective executor at simulation-event times: every
    reservation is requested at the simulated time the transfer becomes
    ready, so FIFO resources inside the backend are always asked in
    chronological order.
    """

    #: Registry key; set by :func:`register_backend`.
    name: str = "unnamed"

    #: Whether the executor should drive this backend through the event-mode
    #: ``transfer(sim, dimension, num_bytes, steps, on_complete)`` API
    #: instead of the timeline-mode :meth:`reserve`; only event-driven
    #: backends define ``transfer``.  It starts the transfer at ``sim.now``
    #: and walks it hop by hop as simulator events, requesting every link
    #: resource at the simulated time the data actually becomes ready, which
    #: keeps per-link FIFOs chronological (work-conserving) when transfers
    #: from many chunks and collectives interleave.  ``on_complete(finish)``
    #: may be delivered synchronously or from a scheduled event; the
    #: executor tolerates both.
    event_driven: bool = False

    topology: Topology
    network: NetworkConfig

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def reserve(
        self,
        dimension: str,
        num_bytes: float,
        earliest_start: float,
        steps: int = 1,
    ) -> Reservation:
        """Serialise ``num_bytes`` onto ``dimension`` over ``steps`` ring steps.

        Returns a :class:`~repro.sim.resources.Reservation` whose ``finish``
        includes every per-step link latency, so callers need no further
        latency accounting.
        """

    @abc.abstractmethod
    def has_dimension(self, dimension: str) -> bool:
        """Whether ``dimension`` carries traffic in this backend's fabric."""

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def dimensions(self) -> List[str]:
        """Active dimension names, in deterministic order."""

    @property
    @abc.abstractmethod
    def bytes_injected(self) -> float:
        """Total bytes the representative NPU injected into the fabric."""

    @abc.abstractmethod
    def utilization(self, horizon_ns: float) -> float:
        """Average fraction of the fabric busy over ``horizon_ns`` (Fig. 10)."""

    @abc.abstractmethod
    def utilization_series(self, horizon_ns: float, window_ns: float) -> List[tuple]:
        """Windowed utilization series across the fabric (Fig. 10 timelines)."""

    @abc.abstractmethod
    def last_activity(self) -> float:
        """Latest simulated time at which the fabric was still moving bytes."""

    def check_accounting(self, horizon_ns: float) -> None:
        """Assert no fabric resource is busy for longer than ``horizon_ns``.

        Busy time above the horizon means reservations double-booked a FIFO
        resource — the failure mode batched/coalesced booking could
        introduce.  Backends with internal bandwidth resources override this
        to raise :class:`~repro.errors.ResourceError` on violation; every
        training and network-drive job calls it after it simulates.  The
        default is a no-op for closed-form backends with nothing to
        double-book.
        """


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_BACKENDS: Dict[str, Type[NetworkBackend]] = {}


def register_backend(name: str) -> Callable[[Type[NetworkBackend]], Type[NetworkBackend]]:
    """Class decorator registering a :class:`NetworkBackend` implementation.

    >>> @register_backend("symmetric")
    ... class SymmetricFabric(NetworkBackend): ...
    """

    def decorator(cls: Type[NetworkBackend]) -> Type[NetworkBackend]:
        if name == AUTO_BACKEND:
            raise ConfigurationError(
                f"{AUTO_BACKEND!r} is reserved for the size heuristic and "
                f"cannot name a backend"
            )
        if name in _BACKENDS:
            raise ConfigurationError(f"network backend {name!r} already registered")
        cls.name = name
        _BACKENDS[name] = cls
        return cls

    return decorator


def _ensure_builtin_backends() -> None:
    """Import the shipped backends so the registry is populated.

    Imports are deferred to avoid a cycle: the backend modules import this
    module for the protocol and the decorator.
    """
    import repro.network.detailed  # noqa: F401
    import repro.network.hybrid  # noqa: F401
    import repro.network.symmetric  # noqa: F401


def backend_names() -> Tuple[str, ...]:
    """Names of all registered backends, in registration order."""
    _ensure_builtin_backends()
    return tuple(_BACKENDS)


def validate_backend_name(name: str) -> str:
    """Check that ``name`` is ``"auto"`` or a registered backend; return it."""
    if name == AUTO_BACKEND:
        return name
    names = backend_names()
    if name not in names:
        raise ConfigurationError(
            f"unknown network backend {name!r}; expected {AUTO_BACKEND!r} "
            f"or one of {list(names)}"
        )
    return name


def resolve_backend_name(
    name: str,
    topology: Topology,
    auto_threshold: Optional[int] = None,
) -> str:
    """Resolve ``"auto"`` to a concrete backend name for ``topology``.

    ``auto_threshold`` (default :data:`DEFAULT_AUTO_NPU_THRESHOLD`) is the
    largest NPU count still simulated with the detailed per-link model;
    between it and :data:`MAX_HYBRID_NPUS` the hybrid backend keeps the
    most-contended dimension at per-link detail, and above that the
    symmetric model takes over.  Explicit names pass through after registry
    validation.
    """
    validate_backend_name(name)
    if name != AUTO_BACKEND:
        return name
    threshold = DEFAULT_AUTO_NPU_THRESHOLD if auto_threshold is None else auto_threshold
    if threshold <= 0:
        raise ConfigurationError(
            f"network-backend auto threshold must be positive, got {threshold}"
        )
    if topology.num_nodes <= threshold:
        return "detailed"
    if topology.num_nodes <= MAX_HYBRID_NPUS:
        return "hybrid"
    return "symmetric"


def make_network_backend(
    name: str,
    topology: Topology,
    network: NetworkConfig,
    auto_threshold: Optional[int] = None,
) -> NetworkBackend:
    """Build the backend ``name`` (``"symmetric" | "detailed" | "auto"``).

    ``"auto"`` picks per :func:`resolve_backend_name`.  Infeasible
    combinations raise :class:`~repro.errors.ConfigurationError`: unknown
    names, bad thresholds, or an explicit ``detailed`` request on a platform
    larger than :data:`MAX_DETAILED_NPUS`.
    """
    resolved = resolve_backend_name(name, topology, auto_threshold)
    if resolved == "detailed" and topology.num_nodes > MAX_DETAILED_NPUS:
        raise ConfigurationError(
            f"network backend 'detailed' is infeasible for topology "
            f"{topology.name!r} with {topology.num_nodes} NPUs "
            f"(cap: {MAX_DETAILED_NPUS}); use backend='hybrid' to keep the "
            f"most-contended dimension at per-link detail, or 'symmetric' "
            f"for large sweeps — the paper validates the fast models against "
            f"the detailed one on small systems for exactly this reason"
        )
    if resolved == "hybrid" and topology.num_nodes > MAX_HYBRID_NPUS:
        raise ConfigurationError(
            f"network backend 'hybrid' is infeasible for topology "
            f"{topology.name!r} with {topology.num_nodes} NPUs "
            f"(cap: {MAX_HYBRID_NPUS}); use backend='symmetric' for large "
            f"sweeps — the paper validates the fast models against the "
            f"detailed one on small systems for exactly this reason"
        )
    return _BACKENDS[resolved](topology, network)
