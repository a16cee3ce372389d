"""The parallel sweep runner.

:class:`SweepRunner` fans a batch of :class:`~repro.runner.job.SimJob`\\ s out
over a ``multiprocessing`` pool and collects results in input order.  Design
points:

* **Per-job error capture** — a failing cell records its traceback on its
  :class:`JobOutcome` instead of aborting the sweep; :meth:`SweepRunner.run`
  never raises for a job failure (:meth:`SweepRunner.run_values` does).
* **Caching** — jobs found in the attached :class:`ResultCache` are served
  without simulating; fresh results are stored back, so a second run of the
  same sweep is (almost) entirely cache hits.
* **In-batch deduplication** — jobs with identical specs are simulated once
  per batch even without a cache.
* **Single-flight across runs** — runs sharing a disk cache claim each
  missing spec before simulating it (:meth:`ResultCache.claim`), simulate
  only what they claimed, then wait for the specs other live runs claimed
  and serve those from the cache.  Concurrent runs of one sweep therefore
  simulate each unique spec once between them.
* **Determinism** — the simulator is deterministic and every result travels
  through the same encode/decode round trip whether it ran inline, in a
  worker process, or came from the cache, so serial and parallel execution
  produce identical results.

Workers receive the job's canonical JSON and return an encoded result, so
only plain strings and JSON-safe dicts cross process boundaries.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import os
import time
import traceback
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, SimulationError
from repro.runner.cache import ResultCache, cache_from_env
from repro.runner.job import SimJob
from repro.runner.serialization import decode_result, encode_result

#: Environment variable selecting the default runner's worker count
#: (an integer, or ``auto`` for one worker per CPU).
WORKERS_ENV = "REPRO_WORKERS"


@dataclass
class JobOutcome:
    """Result of one job in a sweep: a value, or a captured error."""

    job: SimJob
    value: object = None
    error: Optional[str] = None
    from_cache: bool = False
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class RunnerStats:
    """Counters accumulated across every :meth:`SweepRunner.run` call."""

    jobs: int = 0
    executed: int = 0
    cache_hits: int = 0
    deduplicated: int = 0
    errors: int = 0
    #: Worker pools created over the runner's lifetime; a multi-batch driver
    #: on a healthy persistent pool sees this stay at 1.
    pool_starts: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "jobs": self.jobs,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "deduplicated": self.deduplicated,
            "errors": self.errors,
            "pool_starts": self.pool_starts,
        }


def warm_worker() -> None:
    """Pool initializer: pre-import the simulator into a fresh worker.

    Importing :mod:`repro.runner.job` pulls in the training loop, the network
    backends, and every workload, so by the time a worker receives its first
    payload the import cost is already paid.  This is what makes a persistent
    pool "warm": under spawn-type start methods each worker would otherwise
    re-import the whole simulator inside its first job's wall time.
    """
    import repro.runner.job  # noqa: F401  (imported for its side effects)


def _execute_payload(payload_json: str) -> Tuple[str, object, float]:
    """Worker entry point: run one job from its canonical JSON.

    Returns ``("ok", encoded_result, seconds)`` or
    ``("error", traceback_text, seconds)`` — exceptions never escape, so one
    bad cell cannot take the pool down.
    """
    start = time.perf_counter()
    try:
        job = SimJob.from_json(payload_json)
        payload = encode_result(job.execute())
        return ("ok", payload, time.perf_counter() - start)
    except Exception:
        # KeyboardInterrupt/SystemExit deliberately propagate so the inline
        # path stays interruptible; the pool path surfaces them in the parent.
        return ("error", traceback.format_exc(), time.perf_counter() - start)


def _resolve_workers(workers: Union[int, str, None]) -> int:
    """Parse a worker-count setting into a concrete process count.

    Accepts a non-negative ``int`` or integer string (``0`` and ``1`` both
    mean serial execution), ``"auto"`` (one worker per CPU) or ``None``
    (same as ``"auto"``).  Anything else — e.g. a typo'd ``REPRO_WORKERS``
    environment variable — raises a
    :class:`~repro.errors.ConfigurationError` (a :class:`ValueError`
    subclass) naming the offending value and the environment variable,
    instead of surfacing ``int()``'s bare traceback.
    """
    if workers in (None, "auto"):
        return os.cpu_count() or 1
    try:
        count = int(workers)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"workers must be a non-negative integer (e.g. 4) or 'auto', "
            f"got {workers!r} (check the {WORKERS_ENV} environment variable)"
        ) from None
    if count < 0:
        raise ConfigurationError(
            f"workers must be non-negative, got {workers!r} "
            f"(check the {WORKERS_ENV} environment variable)"
        )
    return max(1, count)


class SweepRunner:
    """Run batches of simulation jobs, in parallel, with result caching.

    The worker pool is created lazily on the first parallel batch and then
    **reused across every subsequent** :meth:`run` call, so multi-batch
    callers (``repro run paper-full``, the figure harnesses) pay the
    process-spawn and simulator-import cost once, not per batch.  Call
    :meth:`close` — or use the runner as a context manager — to release the
    pool; a later :meth:`run` transparently builds a fresh one.
    """

    def __init__(
        self,
        workers: Union[int, str, None] = 1,
        cache: Optional[ResultCache] = None,
        mp_start_method: Optional[str] = None,
    ) -> None:
        self.workers = _resolve_workers(workers)
        self.cache = cache
        self.mp_start_method = mp_start_method
        self.stats = RunnerStats()
        self._pool: Optional[multiprocessing.pool.Pool] = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> multiprocessing.pool.Pool:
        """The persistent worker pool, created (warm) on first use."""
        if self._pool is None:
            context = (
                multiprocessing.get_context(self.mp_start_method)
                if self.mp_start_method
                else multiprocessing.get_context()
            )
            self._pool = context.Pool(
                processes=self.workers, initializer=warm_worker
            )
            self.stats.pool_starts += 1
        return self._pool

    def close(self) -> None:
        """Release the persistent worker pool (idempotent).

        The runner stays usable: the next parallel :meth:`run` lazily builds
        a fresh pool.
        """
        if self._pool is not None:
            pool, self._pool = self._pool, None
            pool.close()
            pool.join()

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:
        # Best-effort cleanup for runners dropped without close(); the
        # interpreter may already be tearing down, so swallow everything.
        try:
            if self._pool is not None:
                self._pool.terminate()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, jobs: Iterable[SimJob]) -> List[JobOutcome]:
        """Execute every job and return outcomes in input order.

        Job failures are captured per-outcome; this method only raises for
        programming errors (e.g. a non-SimJob element).
        """
        jobs = list(jobs)
        for job in jobs:
            if not isinstance(job, SimJob):
                raise SimulationError(
                    f"SweepRunner.run expects SimJob instances, got {type(job).__name__}"
                )
        self.stats.jobs += len(jobs)
        outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)

        # Serve cache hits and group the remaining work by spec so each
        # unique simulation runs exactly once per batch.  The spec hash is
        # computed once per job and reused for lookup, dedup, claim and store.
        pending: Dict[str, List[int]] = {}
        for index, job in enumerate(jobs):
            key = (
                self.cache.key_for(job) if self.cache is not None else job.spec_hash()
            )
            if self.cache is not None:
                payload = self.cache.lookup(job, key=key)
                if payload is not None:
                    self.stats.cache_hits += 1
                    outcomes[index] = JobOutcome(
                        job, value=decode_result(payload), from_cache=True
                    )
                    continue
            pending.setdefault(key, []).append(index)
        self.stats.deduplicated += sum(
            len(indices) - 1 for indices in pending.values()
        )

        # Simulate the specs this run claims, then wait out the claims other
        # live runs hold and serve their entries.  No claim is held while
        # waiting, so two runs never wait on each other.  A claim released
        # without an entry means its owner failed: claim it next round.
        while pending:
            claimed = self._run_claimed(jobs, pending, outcomes)
            awaited, pending = pending, {}
            for key, indices in awaited.items():
                if key in claimed:
                    continue
                self.cache.wait(key)
                payload = self.cache.lookup(jobs[indices[0]], key=key)
                if payload is None:
                    pending[key] = indices
                    continue
                self.stats.cache_hits += 1
                for index in indices:
                    outcomes[index] = JobOutcome(
                        jobs[index], value=decode_result(payload), from_cache=True
                    )
        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]

    def _run_claimed(
        self,
        jobs: List[SimJob],
        pending: Dict[str, List[int]],
        outcomes: List[Optional[JobOutcome]],
    ) -> Dict[str, List[int]]:
        """Claim what it can of ``pending``, simulate, store, release.

        Fills the outcomes of the claimed keys and returns them.
        """
        claimed: Dict[str, List[int]] = {}
        try:
            for key, indices in pending.items():
                if self.cache is None or self.cache.claim(key):
                    claimed[key] = indices
            executed = self._execute([jobs[indices[0]] for indices in claimed.values()])
            if self.cache is not None:
                for (key, indices), (status, payload, _) in zip(claimed.items(), executed):
                    if status == "ok":
                        self.cache.store(jobs[indices[0]], payload, key=key)
        finally:
            # Stored first, released second: a waiter that finds the claim
            # gone and no entry knows the job failed.
            if self.cache is not None:
                for key in claimed:
                    self.cache.release(key)
        self.stats.executed += len(claimed)
        for indices, (status, payload, duration) in zip(claimed.values(), executed):
            for index in indices:
                if status == "ok":
                    outcomes[index] = JobOutcome(
                        jobs[index], value=decode_result(payload), duration_s=duration
                    )
                else:
                    self.stats.errors += 1
                    outcomes[index] = JobOutcome(
                        jobs[index], error=str(payload), duration_s=duration
                    )
        return claimed

    def run_values(self, jobs: Iterable[SimJob]) -> List[object]:
        """Like :meth:`run`, but unwrap values and raise on any job failure."""
        outcomes = self.run(jobs)
        failures = [o for o in outcomes if not o.ok]
        if failures:
            first = failures[0]
            raise SimulationError(
                f"{len(failures)} of {len(outcomes)} jobs failed; first failure "
                f"({first.job.kind}/{first.job.system}):\n{first.error}"
            )
        return [o.value for o in outcomes]

    def run_one(self, job: SimJob) -> object:
        """Convenience wrapper for a single job."""
        return self.run_values([job])[0]

    # ------------------------------------------------------------------
    # Execution backends
    # ------------------------------------------------------------------
    def _execute(self, jobs: Sequence[SimJob]) -> List[Tuple[str, object, float]]:
        if not jobs:
            return []
        payloads = [job.to_json() for job in jobs]
        # Serial runners execute inline; so does a single job when no pool is
        # warm yet (spawning workers for one job would cost more than it
        # saves — but an already-warm pool is cheaper than an inline run of
        # anything non-trivial, so it gets the job).
        if self.workers <= 1 or (len(jobs) == 1 and self._pool is None):
            return [_execute_payload(payload) for payload in payloads]
        # map() preserves order; chunksize=1 keeps long cells from
        # serialising behind short ones on one worker.
        return self._ensure_pool().map(_execute_payload, payloads, chunksize=1)


# ---------------------------------------------------------------------------
# Default runner shared by the experiment harnesses
# ---------------------------------------------------------------------------

_default_runner: Optional[SweepRunner] = None


def default_runner() -> SweepRunner:
    """The process-wide runner the experiment harnesses fall back to.

    Configured from the environment on first use: ``REPRO_WORKERS`` selects
    the worker count (default ``1``, ``auto`` = CPU count) and
    ``REPRO_CACHE_DIR`` enables the persistent on-disk cache (default: a
    process-lifetime in-memory cache, which still deduplicates identical
    cells across figures).
    """
    global _default_runner
    if _default_runner is None:
        _default_runner = SweepRunner(
            workers=os.environ.get(WORKERS_ENV, "1"),
            cache=cache_from_env(),
        )
    return _default_runner
