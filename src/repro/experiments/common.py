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

from repro.config.presets import torus_shape_for_npus
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

PAPER_SYSTEMS = (
    "baseline_no_overlap",
    "baseline_comm_opt",
    "baseline_comp_opt",
    "ace",
    "ideal",
)


def topology_for(num_npus: int) -> Torus3D:
    """The canonical LxVxH torus for a paper platform size."""
    return torus_from_shape(torus_shape_for_npus(num_npus))


def chunk_bytes_for(workload_name: str, fast: bool) -> Optional[int]:
    """Chunk size used by the experiments for a workload."""
    if not fast:
        return None  # paper default (64 KB) from the system configuration
    return FAST_CHUNK_BYTES.get(workload_name, 256 * KB)


def grid_jobs(
    systems: Sequence[str] = PAPER_SYSTEMS,
    workloads: Sequence[str] = ("resnet50", "gnmt", "dlrm"),
    sizes: Sequence[int] = (16, 32, 64, 128),
    iterations: int = 2,
    fast: bool = True,
    overlap_embedding: bool = False,
    fabric: Optional[str] = None,
    algorithm: str = "auto",
    backend: Optional[str] = None,
    chunk_bytes: Optional[int] = None,
    parallelism: Optional[str] = None,
    compute: Optional[str] = None,
) -> List[SimJob]:
    """Job specs for every (system, workload, size) grid cell, in grid order.

    ``fabric`` (a topology spec string such as ``"switch:64"``) replaces the
    canonical per-size torus, and ``algorithm`` pins the collective algorithm
    (default: planner auto-selection) — together they let the paper's grids
    be re-run on alternative fabrics.  A fabric spec fixes the platform size,
    so it requires a single-entry ``sizes`` (otherwise every "size" cell
    would silently be the same simulation).  ``backend`` selects the network
    model for every cell (``"symmetric" | "detailed" | "auto"``; default:
    the preset's symmetric model).  ``chunk_bytes`` pins one collective chunk
    size for every cell, overriding the per-workload fast/paper default —
    heavyweight off-paper workloads (megatron) need coarser chunks than the
    paper trio to keep the event count tractable.  ``parallelism`` overrides
    every cell's parallelisation strategy (``"data" | "model" | "hybrid" |
    "zero" | "pipeline" | "pipeline:<stages>x<microbatches>"``; default: each
    workload's native strategy).  ``compute`` selects the kernel-timing
    model for every cell (``"roofline" | "execution-unit" | "auto"``;
    default: the preset's roofline model).
    """
    if fabric is not None and len(set(sizes)) > 1:
        raise ConfigurationError(
            f"fabric={fabric!r} fixes the platform size; pass a single-entry "
            f"sizes instead of {tuple(sizes)} (one fabric spec per size)"
        )
    jobs: List[SimJob] = []
    for workload_name in workloads:
        chunk = chunk_bytes if chunk_bytes is not None else chunk_bytes_for(workload_name, fast)
        for num_npus in sizes:
            for system_name in systems:
                jobs.append(
                    SimJob(
                        kind="training",
                        system=system_name,
                        workload=workload_name,
                        num_npus=None if fabric else num_npus,
                        fabric=fabric,
                        algorithm=algorithm,
                        backend=backend,
                        iterations=iterations,
                        chunk_bytes=chunk,
                        overlap_embedding=overlap_embedding,
                        parallelism=parallelism,
                        compute=compute,
                    )
                )
    return jobs


def run_grid(
    systems: Sequence[str] = PAPER_SYSTEMS,
    workloads: Sequence[str] = ("resnet50", "gnmt", "dlrm"),
    sizes: Sequence[int] = (16, 32, 64, 128),
    iterations: int = 2,
    fast: bool = True,
    overlap_embedding: bool = False,
    fabric: Optional[str] = None,
    algorithm: str = "auto",
    backend: Optional[str] = None,
    chunk_bytes: Optional[int] = None,
    parallelism: Optional[str] = None,
    compute: Optional[str] = None,
    runner: Optional[SweepRunner] = None,
) -> List[TrainingResult]:
    """Simulate every (system, workload, size) combination and return results."""
    runner = runner or default_runner()
    return runner.run_values(
        grid_jobs(
            systems=systems,
            workloads=workloads,
            sizes=sizes,
            iterations=iterations,
            fast=fast,
            overlap_embedding=overlap_embedding,
            fabric=fabric,
            algorithm=algorithm,
            backend=backend,
            chunk_bytes=chunk_bytes,
            parallelism=parallelism,
            compute=compute,
        )
    )
