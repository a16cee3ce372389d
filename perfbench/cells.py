"""The benchmark's workloads: named, seed-ordered lists of simulation cells.

Each workload is a fixed list of :class:`~repro.runner.SimJob` specs; the
seed only decides the order the closed-loop driver submits them in.  The
cells were chosen so that each workload stresses different layers:

* ``comm-sym`` -- paper-scale (64 KB) chunks on the symmetric network
  model, GNMT/DLRM at 64 and 128 NPUs and Megatron at 64 NPUs, on the ACE
  FSM endpoint and the SM-based baseline endpoint.  The collective executor,
  the endpoints and the FIFO resources do nearly all the work; this is the
  traffic that dominates ``paper-full``.
* ``comm-detailed`` -- the per-link network layer (``detailed`` and
  ``hybrid``), its batched bandwidth reservations and per-hop events, with
  the symmetric-only fast paths bypassed.  DLRM's all-to-all forces the
  per-message fallback under contention.
* ``sweep-rerun`` -- the 146 cells of three shipped manifests: small, fast
  cells where per-cell fixed costs (spec hashing, build, trace lowering,
  planning, result assembly, encode and cache writes) take their largest
  share, and whose warm pass reads many small cache entries.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, List, Tuple

from repro.runner import SimJob, training_job
from repro.scenarios import loader

#: Manifests whose compiled job lists make up ``sweep-rerun``.
SWEEP_MANIFESTS = ("parallelism-sweep", "moe-trace", "megatron-tp-scaling")

Cell = Tuple[str, SimJob]


def cell_id(job: SimJob) -> str:
    """A readable name for a cell, stable across spec-hash version salts."""
    parts = [
        job.workload or f"trace:{job.trace}",
        str(job.num_npus if job.fabric is None else job.fabric),
        job.system,
        job.backend or "default",
        job.algorithm,
        job.parallelism or "native",
        str(job.chunk_bytes or "paper"),
        f"it{job.iterations}",
    ]
    return "/".join(parts)


def _comm_sym() -> List[SimJob]:
    jobs = [
        training_job(system, workload, num_npus=npus, iterations=2)
        for workload in ("gnmt", "dlrm")
        for npus in (64, 128)
        for system in ("ace", "baseline_comm_opt")
    ]
    jobs += [
        training_job(system, "megatron", num_npus=64, iterations=1)
        for system in ("ace", "baseline_comm_opt")
    ]
    return jobs


def _comm_detailed() -> List[SimJob]:
    return [
        training_job("ace", "megatron", num_npus=64, iterations=1, backend="detailed"),
        training_job("ace", "megatron", num_npus=64, iterations=1, backend="hybrid"),
        training_job("ace", "gnmt", num_npus=32, iterations=2, backend="detailed"),
        training_job(
            "baseline_comm_opt", "dlrm", num_npus=32, iterations=2, backend="detailed"
        ),
    ]


def _sweep_rerun(root: Path) -> List[SimJob]:
    jobs: List[SimJob] = []
    for name in SWEEP_MANIFESTS:
        scenario = loader.find_scenario(name, root / "scenarios")
        # Looked up on the module at call time, so a layer trace that wraps
        # ``scenario_jobs`` sees the call.
        jobs += loader.scenario_jobs(scenario)
    return jobs


_BUILDERS = {
    "comm-sym": lambda root: _comm_sym(),
    "comm-detailed": lambda root: _comm_detailed(),
    "sweep-rerun": _sweep_rerun,
}


def build_cells(workload: str, seed: int, root: Path) -> List[Cell]:
    """The workload's cells as ``(cell_id, job)`` pairs, shuffled by ``seed``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(_BUILDERS)}")
    cells: Dict[str, SimJob] = {}
    for job in _BUILDERS[workload](root):
        name = cell_id(job)
        if name in cells:
            raise ValueError(f"workload {workload!r} has two cells named {name!r}")
        cells[name] = job
    ordered = sorted(cells.items())
    random.Random(seed).shuffle(ordered)
    return ordered
