"""Parallel sweep execution with content-addressed result caching.

The paper's evaluation is a large grid of independent simulations — systems x
workloads x platform sizes x design points.  This package turns that grid
into data:

* :class:`SimJob` — one simulation request as a frozen, hashable,
  JSON-serializable spec (training loop, network drive, or area/power).
* :class:`SweepRunner` — fans batches of jobs over a ``multiprocessing``
  pool with ordered results, per-job error capture, and in-batch dedup.
* :class:`ResultCache` — memory- or disk-backed cache keyed on the job's
  spec hash and ``repro.__version__``; ``REPRO_CACHE_DIR`` selects a
  persistent directory for the default runner.

>>> from repro.runner import SimJob, SweepRunner
>>> runner = SweepRunner(workers=4)
>>> jobs = [SimJob(system=name, workload="resnet50", num_npus=16, iterations=2)
...         for name in ("ace", "ideal")]
>>> ace, ideal = runner.run_values(jobs)
>>> ace.iteration_time_us >= ideal.iteration_time_us
True
"""

from repro.runner.cache import CACHE_DIR_ENV, ResultCache, cache_from_env
from repro.runner.job import (
    JOB_KINDS,
    SimJob,
    area_power_job,
    network_drive_job,
    trace_job,
    training_job,
)
from repro.runner.pool import (
    WORKERS_ENV,
    JobOutcome,
    RunnerStats,
    SweepRunner,
    default_runner,
)
from repro.runner.serialization import (
    SerializationError,
    decode_result,
    encode_result,
)

__all__ = [
    "CACHE_DIR_ENV",
    "JOB_KINDS",
    "JobOutcome",
    "ResultCache",
    "RunnerStats",
    "SerializationError",
    "SimJob",
    "SweepRunner",
    "WORKERS_ENV",
    "area_power_job",
    "cache_from_env",
    "decode_result",
    "default_runner",
    "encode_result",
    "network_drive_job",
    "trace_job",
    "training_job",
]
