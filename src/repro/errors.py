"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated Python errors.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError, ValueError):
    """A system, workload or experiment configuration is invalid.

    Also a :class:`ValueError`: configuration failures are bad input values
    (e.g. a malformed ``REPRO_WORKERS`` environment variable), so callers
    holding only standard exceptions can still catch them idiomatically.

    ``field`` is the dotted path of the offending field within the object
    the message names (e.g. ``overrides.ace.num_fsms``), or ``None``.
    """

    def __init__(self, message: str = "", field: Optional[str] = None) -> None:
        super().__init__(message)
        self.field = field


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class TopologyError(ConfigurationError):
    """A network topology was constructed with invalid parameters."""


class RoutingError(SimulationError):
    """A packet or message could not be routed to its destination."""


class CollectiveError(ReproError):
    """A collective algorithm was asked to do something unsupported."""


class ResourceError(SimulationError):
    """A simulated hardware resource was used incorrectly."""


class WorkloadError(ConfigurationError):
    """A workload definition is malformed."""


class TraceError(ConfigurationError):
    """An operator-graph trace is malformed or cannot be lowered.

    Raised by :mod:`repro.traces` with the trace name (and the offending
    node id, where one exists) in the message, so a bad ``traces/*.json``
    file points straight at the broken declaration.
    """


class ScenarioError(ConfigurationError):
    """A scenario manifest is malformed or cannot be compiled into jobs.

    Raised by :mod:`repro.scenarios` with the manifest name (and file, when
    loaded from disk) in the message, so a bad ``scenarios/*.json`` entry
    points straight at the offending declaration.
    """


class InvariantViolation(ScenarioError):
    """A scenario ran, but its declared result invariants do not hold."""


class SchedulingError(SimulationError):
    """The collective or compute scheduler reached an invalid state."""

