"""Paired-model agreement sweep (the paper's model-validation methodology).

The paper validates its fast symmetric-node analytical network model against
a detailed per-link simulation on small systems, then uses the fast model
for the large sweeps.  This harness applies that check to any model pair:
every cell runs once per model through one :class:`~repro.runner.SweepRunner`
batch.  ``knob`` names the job field the pair varies (:data:`KNOBS`):

* ``backend`` — network models, default symmetric vs detailed, within 5 %
  on training and network-drive cells.  ``("detailed", "hybrid")`` bounds
  the hybrid backend (``scenarios/hybrid-scale.json``).
* ``compute`` — kernel-timing models, default roofline vs execution-unit,
  within 10 % on training cells (drive jobs have no compute knob).  The
  execution-unit model only adds occupancy and DMA fill/drain on top of the
  roofline bounds, so it is never faster (``slowdown_frac >= 0``).

Each cell yields one row: ``a_*`` / ``b_*`` columns hold the first and
second model's values (the fast model under test, then the reference), and
three measures compare them.  ``time_rel_err`` is the end-to-end time error
relative to the reference.  ``exposed_delta_frac`` is the exposed-
communication gap as a fraction of the time: exposed communication is a
small residual, so a sub-percent wiggle can be a large fraction of the
residual itself without either model being wrong.  ``slowdown_frac`` is
signed: how much slower the reference runs the cell.  Where the models
disagree beyond noise, trust the reference.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.compute.backend import validate_compute_backend_name
from repro.errors import ConfigurationError
from repro.experiments.common import FAST_CHUNK_BYTES
from repro.network.backend import VALIDATE_ACCOUNTING_ENV, validate_backend_name
from repro.runner import SimJob, SweepRunner, default_runner
from repro.units import MB

#: Largest platform validated (the detailed network backend is the reference
#: vehicle and is only trustworthy, and affordable, on small systems).
MAX_VALIDATED_NPUS = 32

DRIVE_PAYLOAD_BYTES = 8 * MB
DRIVE_CHUNK_BYTES = 1 * MB


@dataclass(frozen=True)
class AgreementKnob:
    """Defaults and bound for one model axis."""

    #: Default (fast model under test, reference model).
    models: Tuple[str, str]
    #: Maximum relative disagreement (the bound the shipped manifests assert).
    tolerance: float
    #: Default (workload, num_npus) training cells.
    training_cells: Tuple[Tuple[str, int], ...]
    #: Default (fabric spec, collective op) network-drive cells.
    drive_cells: Tuple[Tuple[str, str], ...]
    #: Rejects a model name the registry does not know.
    validate: Callable[[str], object]


#: GNMT is validated at 8 NPUs only on the network axis because its
#: detailed-model run is by far the slowest cell; the bound is identical at
#: 16 in spot checks.
KNOBS: Dict[str, AgreementKnob] = {
    "backend": AgreementKnob(
        models=("symmetric", "detailed"),
        tolerance=0.05,
        training_cells=(
            ("resnet50", 8),
            ("resnet50", 16),
            ("resnet50", 32),
            ("dlrm", 8),
            ("dlrm", 16),
            ("gnmt", 8),
        ),
        drive_cells=(
            ("torus:4x2x1", "all_reduce"),
            ("torus:4x2x2", "all_reduce"),
            ("torus:4x4x2", "all_reduce"),
            ("torus:4x2x2", "all_to_all"),
            ("switch:16", "all_reduce"),
            ("fc:16", "all_reduce"),
        ),
        validate=validate_backend_name,
    ),
    "compute": AgreementKnob(
        models=("roofline", "execution-unit"),
        tolerance=0.10,
        training_cells=(
            ("resnet50", 8),
            ("resnet50", 16),
            ("resnet50", 32),
            ("dlrm", 8),
            ("dlrm", 16),
            ("gnmt", 8),
            ("gnmt", 16),
        ),
        drive_cells=(),
        validate=validate_compute_backend_name,
    ),
}


def agreement_jobs(
    knob: str,
    system: str = "ace",
    training_cells: Optional[Sequence[Tuple[str, int]]] = None,
    drive_cells: Optional[Sequence[Tuple[str, str]]] = None,
    iterations: int = 2,
    backends: Optional[Sequence[str]] = None,
) -> List[SimJob]:
    """Paired job specs: each cell once per model, first-of-pair first.

    ``backends`` is the model pair (default: the knob's); cells left unset
    take the knob's defaults.  Training cells larger than
    :data:`MAX_VALIDATED_NPUS` are rejected up front.
    """
    if knob not in KNOBS:
        raise ConfigurationError(f"unknown agreement knob {knob!r}; expected one of {list(KNOBS)}")
    spec = KNOBS[knob]
    pair = tuple(spec.models if backends is None else backends)
    if len(pair) != 2 or pair[0] == pair[1]:
        raise ConfigurationError(
            f"{knob} agreement needs exactly two distinct models, got {pair!r}"
        )
    for name in pair:
        spec.validate(name)
    if training_cells is None:
        training_cells = spec.training_cells
    if drive_cells is None:
        drive_cells = spec.drive_cells
    jobs: List[SimJob] = []
    for workload, num_npus in training_cells:
        if num_npus > MAX_VALIDATED_NPUS:
            raise ConfigurationError(
                f"model agreement is defined for <= {MAX_VALIDATED_NPUS} "
                f"NPUs, got a {num_npus}-NPU training cell for {workload!r}"
            )
        for model in pair:
            jobs.append(
                SimJob(
                    kind="training",
                    system=system,
                    workload=workload,
                    num_npus=num_npus,
                    iterations=iterations,
                    chunk_bytes=FAST_CHUNK_BYTES.get(workload),
                    **{knob: model},
                )
            )
    for fabric, op in drive_cells:
        for model in pair:
            jobs.append(
                SimJob(
                    kind="network_drive",
                    system=system,
                    payload_bytes=DRIVE_PAYLOAD_BYTES,
                    fabric=fabric,
                    chunk_bytes=DRIVE_CHUNK_BYTES,
                    op=op,
                    **{knob: model},
                )
            )
    return jobs


def _row(job: SimJob, a, b) -> Dict[str, object]:
    """Comparison row; ``a_``/``b_`` mean (first, second) of the model pair.

    A network drive runs no kernels and its whole collective is exposed, so
    its compute time is zero and its exposed time is its duration.
    """
    if job.kind == "training":
        cell = f"{job.workload}@{job.num_npus}"
        ta, tb = a.total_time_ns, b.total_time_ns
        ea, eb = a.exposed_comm_ns, b.exposed_comm_ns
        ca, cb = a.total_compute_ns, b.total_compute_ns
    else:
        cell = f"{job.op}@{job.fabric}"
        ta, tb = ea, eb = a.duration_ns, b.duration_ns
        ca = cb = 0.0
    return {
        "kind": job.kind,
        "cell": cell,
        "system": job.system,
        "a_time_us": ta / 1e3,
        "b_time_us": tb / 1e3,
        "a_compute_us": ca / 1e3,
        "b_compute_us": cb / 1e3,
        "a_exposed_us": ea / 1e3,
        "b_exposed_us": eb / 1e3,
        "time_rel_err": abs(ta - tb) / max(tb, 1e-9),
        "exposed_delta_frac": abs(ea - eb) / max(ta, tb, 1e-9),
        "slowdown_frac": (tb - ta) / max(ta, 1e-9),
    }


def run_model_agreement(
    knob: str,
    system: str = "ace",
    training_cells: Optional[Sequence[Tuple[str, int]]] = None,
    drive_cells: Optional[Sequence[Tuple[str, str]]] = None,
    iterations: int = 2,
    runner: Optional[SweepRunner] = None,
    backends: Optional[Sequence[str]] = None,
) -> List[Dict[str, object]]:
    """Run every cell on both models and return one comparison row per cell."""
    runner = runner or default_runner()
    jobs = agreement_jobs(
        knob,
        system=system,
        training_cells=training_cells,
        drive_cells=drive_cells,
        iterations=iterations,
        backends=backends,
    )
    # Validation runs are exactly where accounting bugs in batched/coalesced
    # reservations must surface, so every cell asserts check_accounting()
    # after simulating (workers inherit the environment).
    previous = os.environ.get(VALIDATE_ACCOUNTING_ENV)
    os.environ[VALIDATE_ACCOUNTING_ENV] = "1"
    try:
        results = runner.run_values(jobs)
    finally:
        if previous is None:
            os.environ.pop(VALIDATE_ACCOUNTING_ENV, None)
        else:
            os.environ[VALIDATE_ACCOUNTING_ENV] = previous
    return [_row(jobs[i], results[i], results[i + 1]) for i in range(0, len(jobs), 2)]


def max_disagreement(rows: Sequence[Dict[str, object]]) -> float:
    """The largest agreement metric across all rows (what the bound gates)."""
    return max(max(float(row["time_rel_err"]), float(row["exposed_delta_frac"])) for row in rows)
