"""Workload registry.

Maps workload names to builder functions so experiments and examples can
request workloads by name ("resnet50", "gnmt", "dlrm", "megatron") with the
paper's default mini-batch sizes (Section V: 32, 128, 512 per NPU).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import WorkloadError
from repro.workloads.base import Workload
from repro.workloads.dlrm import build_dlrm
from repro.workloads.gnmt import build_gnmt
from repro.workloads.megatron import build_megatron
from repro.workloads.resnet50 import build_resnet50

_BUILDERS: Dict[str, Callable[..., Workload]] = {
    "resnet50": build_resnet50,
    "gnmt": build_gnmt,
    "dlrm": build_dlrm,
    "megatron": build_megatron,
}


def available_workloads() -> List[str]:
    """Names accepted by :func:`build_workload`."""
    return sorted(_BUILDERS)


def build_workload(name: str, **kwargs) -> Workload:
    """Build a workload by its exact name with optional builder overrides."""
    if name not in _BUILDERS:
        raise WorkloadError(
            f"unknown workload {name!r}; available: {available_workloads()}"
        )
    return _BUILDERS[name](**kwargs)
