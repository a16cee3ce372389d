"""Shared helpers for the experiment harnesses.

Every harness expresses its sweep as a batch of :class:`~repro.runner.SimJob`
specs and executes it through a :class:`~repro.runner.SweepRunner`, so the
full evaluation grid parallelises across worker processes and overlapping
sweeps (the same cell appearing in several figures) are served from the
result cache.  Harnesses accept an optional ``runner``; when omitted they
share :func:`repro.runner.default_runner`, which is configured with the
``REPRO_WORKERS`` / ``REPRO_CACHE_DIR`` environment variables.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.config.presets import SYSTEM_CONFIG_NAMES, torus_shape_for_npus
from repro.errors import ConfigurationError
from repro.network.topology import Torus3D, torus_from_shape
from repro.runner import SimJob, SweepRunner, default_runner
from repro.training.results import TrainingResult

#: One chunk size for every workload, or a ``{workload: bytes}`` map.
ChunkBytes = Union[int, Mapping[str, int], None]


def topology_for(num_npus: int) -> Torus3D:
    """The canonical LxVxH torus for a paper platform size."""
    return torus_from_shape(torus_shape_for_npus(num_npus))


def chunks_for(chunk_bytes: ChunkBytes, workloads: Sequence[str]) -> Dict[str, Optional[int]]:
    """The chunk ``chunk_bytes`` sets per workload; ``None`` keeps the preset's 64 KB.

    A map key naming none of ``workloads`` fails rather than run it at 64 KB.
    """
    if not isinstance(chunk_bytes, Mapping):
        return {name: chunk_bytes for name in workloads}
    unknown = sorted(set(chunk_bytes) - set(workloads))
    if unknown:
        raise ConfigurationError(
            f"chunk_bytes key(s) {unknown} name no workload run here "
            f"(workloads: {sorted(set(workloads))})",
            field="chunk_bytes",
        )
    return {name: chunk_bytes.get(name) for name in workloads}


def grid_jobs(
    systems: Sequence[str] = SYSTEM_CONFIG_NAMES,
    workloads: Sequence[str] = ("resnet50", "gnmt", "dlrm"),
    sizes: Sequence[int] = (16, 32, 64, 128),
    chunk_bytes: ChunkBytes = None,
    **knobs,
) -> List[SimJob]:
    """Job specs for every (system, workload, size) grid cell, in grid order.

    ``knobs`` are :class:`~repro.runner.SimJob` fields pinned on every cell
    (``fabric``, ``algorithm``, ``backend``, ``parallelism``, ``compute``,
    ``iterations``, ``overlap_embedding``, ...).  A ``fabric`` spec fixes
    the platform size, so it requires a single-entry ``sizes`` (otherwise
    every "size" cell would silently be the same simulation).
    ``chunk_bytes`` sets the collective chunk size (see :func:`chunks_for`).
    """
    fabric = knobs.get("fabric")
    if fabric is not None and len(set(sizes)) > 1:
        raise ConfigurationError(
            f"fabric={fabric!r} fixes the platform size; pass a single-entry "
            f"sizes instead of {tuple(sizes)} (one fabric spec per size)"
        )
    chunks = chunks_for(chunk_bytes, workloads)
    jobs: List[SimJob] = []
    for workload_name in workloads:
        jobs.extend(
            SimJob(
                kind="training",
                system=system_name,
                workload=workload_name,
                num_npus=None if fabric else num_npus,
                chunk_bytes=chunks[workload_name],
                **knobs,
            )
            for num_npus in sizes
            for system_name in systems
        )
    return jobs


def run_grid(runner: Optional[SweepRunner] = None, **grid) -> List[TrainingResult]:
    """Simulate every :func:`grid_jobs` cell and return the results."""
    return (runner or default_runner()).run_values(grid_jobs(**grid))
