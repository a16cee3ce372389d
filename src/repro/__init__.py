"""repro — reproduction of "Enabling Compute-Communication Overlap in
Distributed Deep Learning Training Platforms" (ACE, ISCA 2021).

The package is an event-driven simulator of a distributed DL training
platform: a 3D-torus Accelerator Fabric, GPU-like NPUs, topology-aware
collective algorithms, the proposed ACE collective-offload engine, the
baseline (NPU-driven) and ideal endpoints, and the training loop that ties
them together.  The ``repro.experiments`` package regenerates every figure and
table of the paper's evaluation.

Quickstart
----------
>>> from repro import make_system, build_workload, simulate_training
>>> result = simulate_training(
...     make_system("ace"), build_workload("resnet50"),
...     num_npus=16, iterations=2, chunk_bytes=512 * 1024)
>>> result.iteration_time_us > 0
True

Sweeps — many independent cells — go through the parallel runner instead of
looping over :func:`simulate_training`.  Jobs fan out over worker processes
and completed cells are served from a content-addressed result cache:

>>> from repro import SimJob, SweepRunner
>>> runner = SweepRunner(workers=4)          # or workers="auto"
>>> jobs = [SimJob(system=name, workload="resnet50", num_npus=16)
...         for name in ("ace", "ideal")]
>>> ace, ideal = runner.run_values(jobs)
>>> ace.iteration_time_us >= ideal.iteration_time_us
True

The experiment harnesses (``repro.experiments``) accept ``runner=`` and
default to a shared runner configured by two environment variables:
``REPRO_WORKERS`` (worker count, ``auto`` = one per CPU, default serial) and
``REPRO_CACHE_DIR`` (persistent on-disk result cache; unset = in-memory
cache for the life of the process).  Cache entries are keyed by the job's
canonical spec hash salted with ``repro.__version__``, so upgrading the
simulator invalidates stale results automatically.
"""

from repro.config import (
    AceConfig,
    ComputeConfig,
    EndpointKind,
    MemoryConfig,
    NetworkConfig,
    ResourcePolicy,
    SystemConfig,
    ace_system,
    baseline_comm_opt,
    baseline_comp_opt,
    baseline_no_overlap,
    ideal_system,
    make_system,
    torus_shape_for_npus,
)
from repro.collectives import (
    CollectiveOp,
    CollectivePlan,
    algorithms,
    plan_collective,
    supported_algorithms,
)
from repro.compute.backend import (
    ComputeBackend,
    compute_backend_names,
    make_compute_backend,
    resolve_compute_backend_name,
)
from repro.network.backend import (
    NetworkBackend,
    backend_names,
    make_network_backend,
    resolve_backend_name,
)
from repro.network.topology import (
    FullyConnected,
    RingTopology,
    SwitchTopology,
    Topology,
    Torus2D,
    Torus3D,
    topology_from_spec,
)
from repro.runner import (
    JobOutcome,
    ResultCache,
    SimJob,
    SweepRunner,
    default_runner,
)
from repro.training import TrainingLoop, TrainingResult, simulate_training
from repro.workloads import (
    Workload,
    available_workloads,
    build_dlrm,
    build_gnmt,
    build_megatron,
    build_resnet50,
    build_workload,
)

__version__ = "1.7.0"

__all__ = [
    "AceConfig",
    "ComputeConfig",
    "EndpointKind",
    "MemoryConfig",
    "NetworkConfig",
    "ResourcePolicy",
    "SystemConfig",
    "ace_system",
    "baseline_comm_opt",
    "baseline_comp_opt",
    "baseline_no_overlap",
    "ideal_system",
    "make_system",
    "torus_shape_for_npus",
    "CollectiveOp",
    "CollectivePlan",
    "algorithms",
    "plan_collective",
    "supported_algorithms",
    "ComputeBackend",
    "compute_backend_names",
    "make_compute_backend",
    "resolve_compute_backend_name",
    "NetworkBackend",
    "backend_names",
    "make_network_backend",
    "resolve_backend_name",
    "FullyConnected",
    "RingTopology",
    "SwitchTopology",
    "Topology",
    "Torus2D",
    "Torus3D",
    "topology_from_spec",
    "JobOutcome",
    "ResultCache",
    "SimJob",
    "SweepRunner",
    "default_runner",
    "TrainingLoop",
    "TrainingResult",
    "simulate_training",
    "Workload",
    "available_workloads",
    "build_dlrm",
    "build_gnmt",
    "build_megatron",
    "build_resnet50",
    "build_workload",
    "__version__",
]
