#!/usr/bin/env python3
"""Benchmark gates for the runner and trace-pipeline benchmarks.

The runner benchmark (``BENCH_service.json``) is gated with
``--service``: the warm-pool batch must be at least ``--min-warm-speedup``
(default 2.0) faster than a cold start, a second run of the ``paper-fast``
batch must be served at least ``--min-cached-fraction`` (default 0.95) from
the shared cache, and two runs racing one batch on one cache directory must
execute each unique spec exactly once between them.  These are same-run
ratios and counts, so no committed baseline is needed and the gate is
hardware-independent.

The trace-pipeline benchmark (``BENCH_traces.json``) is gated with
``--traces``: at every cell that has a hand-coded reference, the trace
load+lower wall time may not exceed ``--max-lower-ratio`` (default 25.0,
env ``REPRO_BENCH_MAX_LOWER_RATIO``) times the hand-coded workload build.
Same-run ratio again, so no committed baseline and no hardware dependence:
the gate keeps trace loading a negligible fraction of any sweep cell.

Usage::

    PYTHONPATH=src python benchmarks/compare_bench.py --service BENCH_service.json
    PYTHONPATH=src python benchmarks/compare_bench.py --traces BENCH_traces.json

Simulated results are pinned in ``tests/test_regression_golden.py``, and the
detailed/symmetric wall ratio is bounded by the slow-marked
``benchmarks/test_backend_wall_ratio.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List

#: Runner gates (``--service``): minimum warm-pool speedup over a cold
#: start, and minimum cache-served fraction on a second paper-fast run.
WARM_SPEEDUP_ENV = "REPRO_BENCH_MIN_WARM_SPEEDUP"
DEFAULT_MIN_WARM_SPEEDUP = 2.0
CACHED_FRACTION_ENV = "REPRO_BENCH_MIN_CACHED_FRACTION"
DEFAULT_MIN_CACHED_FRACTION = 0.95

#: Trace-pipeline gate (``--traces``): maximum trace load+lower wall time as
#: a multiple of the hand-coded workload build for the same cell.
LOWER_RATIO_ENV = "REPRO_BENCH_MAX_LOWER_RATIO"
DEFAULT_MAX_LOWER_RATIO = 25.0


def check_service(
    path: Path, min_warm_speedup: float, min_cached_fraction: float
) -> List[str]:
    """Gate a ``BENCH_service.json`` payload (empty list = pass)."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {path} is not valid JSON: {exc}")
    results = payload.get("results")
    if not isinstance(results, dict):
        raise SystemExit(f"error: {path} has no 'results' object")
    problems: List[str] = []
    warm_speedup = float(results.get("warm_speedup", 0.0))
    if warm_speedup < min_warm_speedup:
        problems.append(
            f"warm-pool speedup {warm_speedup:.2f}x is below the "
            f"{min_warm_speedup:.2f}x floor (cold "
            f"{float(results.get('cold_batch_s', 0.0)):.3f}s vs warm "
            f"{float(results.get('warm_batch_s', 0.0)):.3f}s); the persistent "
            f"pool must keep amortising spawn+import cost"
        )
    paper_fast = results.get("paper_fast", {})
    cached_fraction = float(paper_fast.get("cached_fraction", 0.0))
    if cached_fraction < min_cached_fraction:
        problems.append(
            f"second paper-fast run served only {100.0 * cached_fraction:.0f}% "
            f"from cache ({paper_fast.get('second_run_cache_hits')}/"
            f"{paper_fast.get('jobs')} jobs; floor "
            f"{100.0 * min_cached_fraction:.0f}%)"
        )
    concurrent = results.get("concurrent", {})
    executed = concurrent.get("executed")
    jobs_per_client = concurrent.get("jobs_per_client")
    if executed is not None and jobs_per_client is not None:
        if int(executed) != int(jobs_per_client):
            problems.append(
                f"single-flight violated: {executed} executions for "
                f"{jobs_per_client} unique specs across concurrent clients"
            )
    print(
        f"service: warm speedup {warm_speedup:.1f}x "
        f"(floor {min_warm_speedup:.1f}x), paper-fast cached "
        f"{100.0 * cached_fraction:.0f}% (floor "
        f"{100.0 * min_cached_fraction:.0f}%), dedup rate "
        f"{float(concurrent.get('dedup_rate', 0.0)):.2f}"
    )
    return problems


def check_traces(path: Path, max_lower_ratio: float) -> List[str]:
    """Gate a ``BENCH_traces.json`` payload (empty list = pass)."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {path} is not valid JSON: {exc}")
    rows = payload.get("results")
    if not isinstance(rows, list) or not rows:
        raise SystemExit(f"error: {path} has no 'results' rows")
    problems: List[str] = []
    gated = 0
    worst = 0.0
    for row in rows:
        ratio = row.get("lower_ratio")
        if ratio is None:
            continue  # trace-only cell: no hand-coded reference to compare
        gated += 1
        ratio = float(ratio)
        worst = max(worst, ratio)
        if ratio > max_lower_ratio:
            problems.append(
                f"trace cell ({row['workload']}, {row['num_npus']} NPUs): "
                f"load+lower took {ratio:.1f}x the hand-coded build "
                f"({float(row['trace_load_lower_s']):.4f}s vs "
                f"{float(row['hand_build_s']):.4f}s; max {max_lower_ratio:.1f}x)"
            )
    if gated == 0:
        problems.append(
            f"{path} has no cell with a hand-coded reference; the lower-ratio "
            f"gate checked nothing"
        )
    print(
        f"traces: {gated} gated cell(s), worst load+lower ratio "
        f"{worst:.1f}x (max {max_lower_ratio:.1f}x)"
    )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--service",
        metavar="BENCH_service.json",
        default=None,
        help="gate a runner benchmark payload",
    )
    parser.add_argument(
        "--min-warm-speedup",
        type=float,
        default=None,
        help=f"minimum warm-pool speedup over cold start (default "
        f"{DEFAULT_MIN_WARM_SPEEDUP}, or ${WARM_SPEEDUP_ENV})",
    )
    parser.add_argument(
        "--min-cached-fraction",
        type=float,
        default=None,
        help=f"minimum cache-served fraction on the second paper-fast run "
        f"(default {DEFAULT_MIN_CACHED_FRACTION}, or ${CACHED_FRACTION_ENV})",
    )
    parser.add_argument(
        "--traces",
        metavar="BENCH_traces.json",
        default=None,
        help="gate a trace-pipeline benchmark payload",
    )
    parser.add_argument(
        "--max-lower-ratio",
        type=float,
        default=None,
        help=f"max trace load+lower wall time as a multiple of the hand-coded "
        f"build (default {DEFAULT_MAX_LOWER_RATIO}, or ${LOWER_RATIO_ENV})",
    )
    args = parser.parse_args(argv)
    if args.service is None and args.traces is None:
        parser.error("nothing to gate: pass --service and/or --traces")
    min_warm_speedup = args.min_warm_speedup
    if min_warm_speedup is None:
        min_warm_speedup = float(os.environ.get(WARM_SPEEDUP_ENV, DEFAULT_MIN_WARM_SPEEDUP))
    min_cached_fraction = args.min_cached_fraction
    if min_cached_fraction is None:
        min_cached_fraction = float(
            os.environ.get(CACHED_FRACTION_ENV, DEFAULT_MIN_CACHED_FRACTION)
        )
    max_lower_ratio = args.max_lower_ratio
    if max_lower_ratio is None:
        max_lower_ratio = float(os.environ.get(LOWER_RATIO_ENV, DEFAULT_MAX_LOWER_RATIO))
    if max_lower_ratio <= 0:
        raise SystemExit(
            f"error: max lower ratio must be positive, got {max_lower_ratio}"
        )

    problems: List[str] = []
    if args.service is not None:
        problems += check_service(Path(args.service), min_warm_speedup, min_cached_fraction)
    if args.traces is not None:
        problems += check_traces(Path(args.traces), max_lower_ratio)

    if problems:
        print(f"\nFAIL: {len(problems)} benchmark regression(s):", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    checked = []
    if args.service is not None:
        checked.append(
            f"service gates hold (warm speedup >= {min_warm_speedup:.1f}x, "
            f"cached fraction >= {100 * min_cached_fraction:.0f}%)"
        )
    if args.traces is not None:
        checked.append(
            f"trace gates hold (load+lower <= {max_lower_ratio:.1f}x the "
            f"hand-coded build)"
        )
    print(f"\nOK: {'; '.join(checked)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
