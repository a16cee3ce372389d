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

from typing import Dict, List, Optional, Sequence

from repro.config.presets import SYSTEM_CONFIG_NAMES, torus_shape_for_npus
from repro.errors import ConfigurationError
from repro.network.topology import Torus3D, torus_from_shape
from repro.runner import SimJob, SweepRunner, default_runner
from repro.training.results import TrainingResult
from repro.units import KB

#: Chunk sizes used by the fast experiment mode, per workload.  Larger chunks
#: keep the event count (and therefore wall-clock time) manageable without
#: changing who wins; the full mode uses the paper's 64 KB chunks.
FAST_CHUNK_BYTES: Dict[str, int] = {
    "resnet50": 128 * KB,
    "gnmt": 1024 * KB,
    "dlrm": 512 * KB,
    "megatron": 1024 * KB,
}


def topology_for(num_npus: int) -> Torus3D:
    """The canonical LxVxH torus for a paper platform size."""
    return torus_from_shape(torus_shape_for_npus(num_npus))


def chunk_bytes_for(workload_name: str, fast: bool) -> Optional[int]:
    """Chunk size used by the experiments for a workload."""
    if not fast:
        return None  # paper default (64 KB) from the system configuration
    return FAST_CHUNK_BYTES.get(workload_name, 256 * KB)


def grid_jobs(
    systems: Sequence[str] = SYSTEM_CONFIG_NAMES,
    workloads: Sequence[str] = ("resnet50", "gnmt", "dlrm"),
    sizes: Sequence[int] = (16, 32, 64, 128),
    fast: bool = True,
    chunk_bytes: Optional[int] = None,
    **knobs,
) -> List[SimJob]:
    """Job specs for every (system, workload, size) grid cell, in grid order.

    ``knobs`` are :class:`~repro.runner.SimJob` fields pinned on every cell
    (``fabric``, ``algorithm``, ``backend``, ``parallelism``, ``compute``,
    ``iterations``, ``overlap_embedding``, ...).  A ``fabric`` spec fixes
    the platform size, so it requires a single-entry ``sizes`` (otherwise
    every "size" cell would silently be the same simulation).
    ``chunk_bytes`` pins one collective chunk size for every cell, overriding
    the per-workload ``fast`` / paper default.
    """
    fabric = knobs.get("fabric")
    if fabric is not None and len(set(sizes)) > 1:
        raise ConfigurationError(
            f"fabric={fabric!r} fixes the platform size; pass a single-entry "
            f"sizes instead of {tuple(sizes)} (one fabric spec per size)"
        )
    jobs: List[SimJob] = []
    for workload_name in workloads:
        chunk = chunk_bytes if chunk_bytes is not None else chunk_bytes_for(workload_name, fast)
        jobs.extend(
            SimJob(
                kind="training",
                system=system_name,
                workload=workload_name,
                num_npus=None if fabric else num_npus,
                chunk_bytes=chunk,
                **knobs,
            )
            for num_npus in sizes
            for system_name in systems
        )
    return jobs


def run_grid(runner: Optional[SweepRunner] = None, **grid) -> List[TrainingResult]:
    """Simulate every :func:`grid_jobs` cell and return the results."""
    return (runner or default_runner()).run_values(grid_jobs(**grid))
