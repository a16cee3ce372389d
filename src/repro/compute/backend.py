"""The compute-model protocol.

The paper's network evaluation runs on two models — a fast analytical one for
the large sweeps and a detailed one that validates it on small systems — and
:mod:`repro.network` names each of them in one fixed table.  This module
applies the same treatment to *compute*: every kernel-timing model implements
the :class:`ComputeBackend` protocol, :data:`repro.compute.npu.COMPUTE_BACKENDS`
names them, and the rest of the simulator — the NPU engine, the trace cost
tables, the job specs — selects one purely by that name
(:func:`repro.compute.npu.make_compute_backend` builds it).

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

Backends
--------
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
"""

from __future__ import annotations

import abc

from repro.compute.kernels import KernelCost

#: The default compute backend (and the one every golden value pins).
DEFAULT_COMPUTE_BACKEND = "roofline"


class ComputeBackend(abc.ABC):
    """Protocol every compute-timing model implements.

    A backend is constructed for one resource allocation — the sustained
    TFLOPs and HBM bandwidth a :class:`~repro.config.system.SystemConfig`
    leaves to the training computation, or a trace cost table's device rates
    — and prices :class:`~repro.compute.kernels.KernelCost` descriptors.
    """

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
