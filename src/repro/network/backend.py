"""The network-model protocol.

The paper runs its evaluation on two network models: a fast symmetric-node
analytical model (used for every large sweep) and a detailed per-link
simulation (used to validate the fast model on small systems).  Every
network model implements the :class:`NetworkBackend` protocol defined here;
:data:`repro.network.NETWORK_BACKENDS` is the fixed table of them, and the
rest of the simulator — the collective executor, the training loop, the job
specs — selects one purely by its name there.

Protocol
--------
A backend answers one question for the representative NPU: *"if I inject
``num_bytes`` on fabric dimension ``d`` starting no earlier than ``t``,
walking ``steps`` ring steps, when does the transfer start and finish?"*
(:meth:`NetworkBackend.reserve`).  Around that it exposes the observability
surface the training loop reports on: injected bytes, link utilization, a
windowed utilization series, and the time of last activity.

The collective executor does not call ``reserve``.  It walks each transfer
of an event-driven backend through ``transfer``.  A timeline backend
(``event_driven = False``) hands it, once per stage-table row, the pipe a
``(dimension, steps)`` transfer books and the latency its later steps add
(``booking``), and the executor books that pipe itself per chunk.
"""

from __future__ import annotations

import abc
from typing import Iterable, List

from repro.config.system import NetworkConfig
from repro.network.topology import Topology
from repro.sim.resources import Reservation


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


class NetworkBackend(abc.ABC):
    """Protocol every network model implements.

    A backend is constructed for one ``(topology, network)`` pairing and is
    driven by the collective executor at simulation-event times: every
    reservation is requested at the simulated time the transfer becomes
    ready, so FIFO resources inside the backend are always asked in
    chronological order.
    """

    #: Whether the executor should drive this backend through the event-mode
    #: ``transfer(sim, dimension, num_bytes, steps, on_complete)`` API
    #: instead of booking the pipes of the timeline-mode
    #: ``booking(dimension, steps) -> (pipe, tail)`` itself; only
    #: event-driven backends define ``transfer``, and only timeline backends
    #: ``booking``.  ``transfer`` starts the transfer at ``sim.now``
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
