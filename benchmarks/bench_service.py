#!/usr/bin/env python3
"""Runner benchmark: warm pool, cached lookups, concurrent runs.

Emits ``BENCH_service.json`` with four runner-layer measurements:

* **cold vs warm batch latency** — the same small batch run on a fresh
  spawn-method :class:`~repro.runner.SweepRunner` (the pool spawns and the
  workers import the simulator inside the batch's wall time) and then again
  on the now-warm persistent pool.  ``warm_speedup`` is what the persistent
  pool buys every batch after the first;
  ``benchmarks/compare_bench.py --service`` gates it at >= 2x.
* **cached-job p50** — median latency of re-running an already-cached job
  through a disk-backed cache; the write-through memory layer makes repeats
  skip the JSON re-read.
* **concurrent runs + single-flight** — two runner processes start the same
  batch at once on one cache directory; the claim files make each unique
  spec simulate exactly once between them, and every other job is served
  from the cache.
* **paper-fast cache-served fraction** — a second run of the ``paper-fast``
  scenario batch must be served (almost) entirely from cache; gated at
  >= 95%.

All gated quantities are same-run ratios or deterministic counts, so the
gate is hardware-independent.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py [--out BENCH_service.json]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import statistics
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from repro.runner import ResultCache, SweepRunner, network_drive_job
from repro.scenarios import find_scenario, scenario_jobs
from repro.units import KB, MB

#: Workers for every pooled measurement; small on purpose so the benchmark
#: runs on 2-core CI machines without oversubscription.
WORKERS = 2

#: Runner processes racing one batch in the concurrency measurement.
CLIENTS = 2

#: Repeats for the warm batch and the cached-lookup p50.
WARM_REPEATS = 3
CACHED_LOOKUPS = 21


def _bench_batch() -> List:
    """A small, cheap, dedup-free batch (distinct payload sizes)."""
    return [
        network_drive_job(
            "ace", (i + 1) * MB, topology=(2, 2, 2), chunk_bytes=256 * KB
        )
        for i in range(4)
    ]


def bench_cold_vs_warm() -> Dict[str, object]:
    """Cold-start vs warm-pool latency for the same batch.

    The spawn start method is used for both runs so the cold number reflects
    what every per-batch pool pays on platforms where spawn is the default:
    process spawn plus a full simulator import per worker.  The warm number
    is the same runner's next batches on its persistent, pre-imported pool.
    """
    batch = _bench_batch()
    with SweepRunner(workers=WORKERS, mp_start_method="spawn") as runner:
        start = time.perf_counter()
        runner.run_values(batch)
        cold_s = time.perf_counter() - start
        warm_s = float("inf")
        for _ in range(WARM_REPEATS):
            start = time.perf_counter()
            runner.run_values(batch)
            warm_s = min(warm_s, time.perf_counter() - start)
        assert runner.stats.pool_starts == 1, "warm batches must reuse the pool"
    return {
        "batch_jobs": len(batch),
        "workers": WORKERS,
        "mp_start_method": "spawn",
        "cold_batch_s": cold_s,
        "warm_batch_s": warm_s,
        "warm_speedup": cold_s / warm_s if warm_s > 0 else 0.0,
    }


def bench_cached_p50(cache_dir: Path) -> Dict[str, object]:
    """Median latency of serving one already-cached job."""
    job = _bench_batch()[0]
    runner = SweepRunner(workers=1, cache=ResultCache(cache_dir))
    runner.run_one(job)  # populate
    samples: List[float] = []
    for _ in range(CACHED_LOOKUPS):
        start = time.perf_counter()
        runner.run_one(job)
        samples.append(time.perf_counter() - start)
    return {
        "cached_lookups": CACHED_LOOKUPS,
        "cached_p50_s": statistics.median(samples),
        "cache": runner.cache.stats,
    }


def _concurrent_batch() -> List:
    """Eight distinct specs; every client submits all of them."""
    return _bench_batch() + [
        network_drive_job(
            "ace", (i + 1) * MB, topology=(4, 2, 2), chunk_bytes=256 * KB
        )
        for i in range(4)
    ]


def _concurrent_client(cache_dir: str, barrier, results) -> None:
    """One runner process: start with the others, report wall and stats."""
    runner = SweepRunner(workers=1, cache=ResultCache(cache_dir))
    batch = _concurrent_batch()
    barrier.wait()
    start = time.perf_counter()
    runner.run_values(batch)
    stats = runner.stats.as_dict()
    stats["wall_s"] = time.perf_counter() - start
    results.put(stats)


def bench_concurrent_clients(cache_dir: Path) -> Dict[str, object]:
    """Two runner processes race the same batch on one cache directory.

    Every job is unique within the batch but shared *across* the clients, so
    the claim files (or, for late arrivals, the cache) must absorb exactly
    half the submitted jobs: the clients' ``executed`` counts sum to the
    unique spec count no matter how the race interleaves.
    """
    batch = _concurrent_batch()
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(CLIENTS)
    queue = context.Queue()
    clients = [
        context.Process(target=_concurrent_client, args=(str(cache_dir), barrier, queue))
        for _ in range(CLIENTS)
    ]
    for client in clients:
        client.start()
    # Drain the queue before joining: a child blocks on exit until its
    # queued result is read.
    stats = [queue.get(timeout=300) for _ in clients]
    for client in clients:
        client.join(timeout=60)
    if any(client.exitcode != 0 for client in clients):
        raise RuntimeError(f"a client failed: exit codes {[c.exitcode for c in clients]}")
    submitted = CLIENTS * len(batch)
    executed = sum(s["executed"] for s in stats)
    wall_s = max(s["wall_s"] for s in stats)
    assert executed == len(batch), (
        f"single-flight violated: {executed} executions for "
        f"{len(batch)} unique specs"
    )
    return {
        "clients": CLIENTS,
        "jobs_per_client": len(batch),
        "jobs_submitted": submitted,
        "wall_s": wall_s,
        "jobs_per_s": submitted / wall_s if wall_s > 0 else 0.0,
        "executed": executed,
        "cache_hits": sum(s["cache_hits"] for s in stats),
        "dedup_rate": (submitted - executed) / submitted,
    }


def bench_paper_fast_cached(cache_dir: Path) -> Dict[str, object]:
    """Run the paper-fast batch twice; the second run must hit the cache."""
    jobs = scenario_jobs(find_scenario("paper-fast"))
    first = SweepRunner(workers=WORKERS, cache=ResultCache(cache_dir))
    first.run_values(jobs)
    first.close()
    # A fresh runner (and cache object) over the same directory: the second
    # "client" of the shared on-disk cache.
    second = SweepRunner(workers=WORKERS, cache=ResultCache(cache_dir))
    second.run_values(jobs)
    second.close()
    hits = second.stats.cache_hits
    return {
        "jobs": len(jobs),
        "second_run_cache_hits": hits,
        "cached_fraction": hits / len(jobs) if jobs else 0.0,
    }


def run_service_bench() -> Dict[str, object]:
    """All four measurements as one ``BENCH_service.json`` payload."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as tmp:
        tmp_path = Path(tmp)
        cold_warm = bench_cold_vs_warm()
        cached = bench_cached_p50(tmp_path / "cached")
        concurrent = bench_concurrent_clients(tmp_path / "concurrent")
        paper_fast = bench_paper_fast_cached(tmp_path / "paper-fast")
    results: Dict[str, object] = dict(cold_warm)
    results.update(cached)
    results["concurrent"] = concurrent
    results["paper_fast"] = paper_fast
    return {"benchmark": "service", "schema": 1, "results": results}


def format_service_bench(payload: Dict[str, object]) -> str:
    """Human-readable summary of the service benchmark payload."""
    results = payload["results"]
    concurrent = results["concurrent"]
    paper_fast = results["paper_fast"]
    return "\n".join(
        [
            f"cold batch   {results['cold_batch_s']:.3f}s  ->  warm batch "
            f"{results['warm_batch_s']:.3f}s  ({results['warm_speedup']:.1f}x speedup)",
            f"cached p50   {1e3 * results['cached_p50_s']:.2f}ms over "
            f"{results['cached_lookups']} lookups",
            f"concurrent   {concurrent['jobs_per_s']:.1f} jobs/s from "
            f"{concurrent['clients']} clients; {concurrent['executed']} executed, "
            f"{concurrent['cache_hits']} cache hit(s) "
            f"(dedup rate {concurrent['dedup_rate']:.2f})",
            f"paper-fast   {paper_fast['second_run_cache_hits']}/{paper_fast['jobs']} "
            f"served from cache on the second run "
            f"({100.0 * paper_fast['cached_fraction']:.0f}%)",
        ]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_service.json", help="output JSON path")
    args = parser.parse_args(argv)
    payload = run_service_bench()
    out_path = Path(args.out)
    with out_path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(format_service_bench(payload))
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
