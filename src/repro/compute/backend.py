"""Pluggable compute-model backends.

The paper's network evaluation runs on two models — a fast analytical one for
the large sweeps and a detailed one that validates it on small systems — and
:mod:`repro.network.backend` makes that pairing a pluggable seam.  This module
applies the same treatment to *compute*: every kernel-timing model implements
the :class:`ComputeBackend` protocol, registers itself under a name, and the
rest of the simulator — the NPU engine, the trace cost tables, the job specs —
selects one purely by that name.

Protocol
--------
A backend is built for one resource allocation (sustained TFLOPs and the HBM
bandwidth left to the training computation) and answers one question:
*"how long does this kernel take?"* (:meth:`ComputeBackend.kernel_time_ns`).
It also exposes the inverse (:meth:`ComputeBackend.invert_duration_ns`): the
FLOP count of a synthetic compute-bound kernel that reproduces a measured
wall-clock duration under this backend's own model — which is how trace cost
tables replay ``measured`` op descriptors exactly on whichever backend is
active.

Registered backends
-------------------
==============  ============================================================
Name            Model
==============  ============================================================
roofline        :class:`~repro.compute.roofline.RooflineModel` — max of the
                compute-bound and memory-bound times plus launch overhead;
                the default, and the model every golden value pins.
execution-unit  :class:`~repro.compute.execution_unit.ExecutionUnitModel` —
                Scalar/Matrix/Vector/DMA units with SRAM staging,
                register-file bypass, and occupancy/overlap derates; a
                kernel's time is the max over its occupied units plus the
                non-hidden DMA fill/drain.
==============  ============================================================

``"auto"`` resolves by platform size, mirroring the network heuristic in
reverse: the higher-fidelity execution-unit model at or below
:data:`DEFAULT_COMPUTE_AUTO_NPU_THRESHOLD` NPUs (validate small), the fast
roofline model above (sweep large).  Unknown names and invalid unit
parameters raise :class:`~repro.errors.ConfigurationError` naming the field
and the valid choices.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Optional, Tuple, Type

from repro.compute.kernels import KERNEL_LAUNCH_OVERHEAD_NS, KernelCost
from repro.errors import ConfigurationError

#: Backend name that defers the choice to the size heuristic.
AUTO_COMPUTE_BACKEND = "auto"

#: The default compute backend (and the one every golden value pins).
DEFAULT_COMPUTE_BACKEND = "roofline"

#: "auto" uses the execution-unit model at or below this many NPUs and the
#: roofline model above — the paper's validate-small/sweep-large methodology
#: applied to compute fidelity.
DEFAULT_COMPUTE_AUTO_NPU_THRESHOLD = 32


class ComputeBackend(abc.ABC):
    """Protocol every compute-timing model implements.

    A backend is constructed for one resource allocation — the sustained
    TFLOPs and HBM bandwidth a :class:`~repro.config.system.SystemConfig`
    leaves to the training computation, or a trace cost table's device rates
    — and prices :class:`~repro.compute.kernels.KernelCost` descriptors.
    """

    #: Registry key; set by :func:`register_compute_backend`.
    name: str = "unnamed"

    @abc.abstractmethod
    def kernel_time_ns(self, cost: KernelCost) -> float:
        """Execution time of one kernel, including launch overhead."""

    @abc.abstractmethod
    def invert_duration_ns(self, duration_ns: float) -> float:
        """FLOPs of a zero-byte, unit-efficiency kernel taking ``duration_ns``.

        The returned count satisfies ``kernel_time_ns(KernelCost(name, flops,
        0, 0, 1.0)) == duration_ns`` (durations at or below the launch
        overhead floor at the overhead) — the exact-replay contract trace
        cost tables rely on for ``measured`` op descriptors.
        """


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_COMPUTE_BACKENDS: Dict[str, Type[ComputeBackend]] = {}


def register_compute_backend(
    name: str,
) -> Callable[[Type[ComputeBackend]], Type[ComputeBackend]]:
    """Class decorator registering a :class:`ComputeBackend` implementation.

    >>> @register_compute_backend("roofline")
    ... class RooflineComputeBackend(ComputeBackend): ...
    """

    def decorator(cls: Type[ComputeBackend]) -> Type[ComputeBackend]:
        if name == AUTO_COMPUTE_BACKEND:
            raise ConfigurationError(
                f"{AUTO_COMPUTE_BACKEND!r} is reserved for the size heuristic "
                f"and cannot name a compute backend"
            )
        if name in _COMPUTE_BACKENDS:
            raise ConfigurationError(f"compute backend {name!r} already registered")
        cls.name = name
        _COMPUTE_BACKENDS[name] = cls
        return cls

    return decorator


def _ensure_builtin_backends() -> None:
    """Import the shipped backends so the registry is populated.

    Imports are deferred to avoid a cycle: the backend modules import this
    module for the protocol and the decorator.
    """
    import repro.compute.execution_unit  # noqa: F401
    import repro.compute.roofline_backend  # noqa: F401


def compute_backend_names() -> Tuple[str, ...]:
    """Names of all registered compute backends, in registration order."""
    _ensure_builtin_backends()
    return tuple(_COMPUTE_BACKENDS)


def validate_compute_backend_name(name: str) -> str:
    """Check that ``name`` is ``"auto"`` or a registered backend; return it."""
    if name == AUTO_COMPUTE_BACKEND:
        return name
    names = compute_backend_names()
    if name not in names:
        raise ConfigurationError(
            f"unknown compute backend {name!r}; expected "
            f"{AUTO_COMPUTE_BACKEND!r} or one of {list(names)}"
        )
    return name


def resolve_compute_backend_name(
    name: str,
    num_npus: Optional[int] = None,
    auto_threshold: Optional[int] = None,
) -> str:
    """Resolve ``"auto"`` to a concrete compute backend name.

    ``"auto"`` picks the execution-unit model at or below ``auto_threshold``
    NPUs (default :data:`DEFAULT_COMPUTE_AUTO_NPU_THRESHOLD`) and the
    roofline model above — or the roofline default when no platform size is
    in scope (e.g. a cost table pricing a trace outside any simulation).
    Explicit names pass through after registry validation.
    """
    validate_compute_backend_name(name)
    if name != AUTO_COMPUTE_BACKEND:
        return name
    threshold = (
        DEFAULT_COMPUTE_AUTO_NPU_THRESHOLD if auto_threshold is None else auto_threshold
    )
    if threshold <= 0:
        raise ConfigurationError(
            f"compute-backend auto threshold must be positive, got {threshold}"
        )
    if num_npus is None or num_npus > threshold:
        return "roofline"
    return "execution-unit"


def make_compute_backend(
    name: str,
    tflops: float,
    memory_bandwidth_gbps: float,
    kernel_launch_overhead_ns: float = KERNEL_LAUNCH_OVERHEAD_NS,
    units: Optional[object] = None,
    num_npus: Optional[int] = None,
    auto_threshold: Optional[int] = None,
) -> ComputeBackend:
    """Build the backend ``name`` (``"roofline" | "execution-unit" | "auto"``).

    ``tflops`` and ``memory_bandwidth_gbps`` are the sustained rates of the
    resource allocation being modelled.  ``units`` carries the execution-unit
    parameters (a :class:`~repro.config.system.ComputeConfig`; ``None`` uses
    the Table V defaults) and is ignored by the roofline backend.  ``"auto"``
    resolves per :func:`resolve_compute_backend_name`.  Unknown names raise
    :class:`~repro.errors.ConfigurationError` naming the valid choices.
    """
    resolved = resolve_compute_backend_name(name, num_npus, auto_threshold)
    cls = _COMPUTE_BACKENDS[resolved]
    return cls(  # type: ignore[call-arg]
        tflops=tflops,
        memory_bandwidth_gbps=memory_bandwidth_gbps,
        kernel_launch_overhead_ns=kernel_launch_overhead_ns,
        units=units,
    )
