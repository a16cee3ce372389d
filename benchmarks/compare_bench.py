#!/usr/bin/env python3
"""Benchmark-regression gate: diff a fresh BENCH_backends.json against the
committed baseline.

Rows are matched by their ``(backend, num_npus, workload)`` identity and two
comparisons gate the CI ``fast-benchmarks`` job:

* ``wall_s`` — the wall-clock time of the cell may not regress (grow) by
  more than the tolerance, default 25%.  Getting *faster* never fails.
* ``iteration_time_us`` — the *simulated* result is deterministic, so it
  must match the baseline exactly (to float-formatting precision); a drift
  here is a modelling change, not noise, and must be re-baselined on
  purpose.

Missing or extra cells fail the gate too: silently dropping a benchmark cell
would otherwise read as "no regression".

On top of the baseline diff, the *fresh* run must keep the detailed backend
affordable: at every 32-NPU cell present for both backends, the
detailed/symmetric wall-time ratio may not exceed ``--max-detailed-ratio``
(default 2.0, env ``REPRO_BENCH_MAX_DETAILED_RATIO``).  Both walls come from
the same run on the same machine, so the ratio is hardware-independent; it
is the property the detailed hot path's coalescing/batching work bought, and
this gate keeps it bought.

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

    PYTHONPATH=src python benchmarks/compare_bench.py BENCH_backends.json \
        [--baseline benchmarks/baselines/BENCH_backends.json] \
        [--tolerance 0.25]
    PYTHONPATH=src python benchmarks/compare_bench.py --service BENCH_service.json

The tolerance can also be set with the ``REPRO_BENCH_TOLERANCE`` environment
variable (the flag wins).  To re-baseline intentionally, regenerate with
``python -m repro bench --out benchmarks/baselines/BENCH_backends.json`` and
commit the result together with the change that motivated it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Tuple

DEFAULT_BASELINE = Path(__file__).parent / "baselines" / "BENCH_backends.json"
TOLERANCE_ENV = "REPRO_BENCH_TOLERANCE"
DEFAULT_TOLERANCE = 0.25

#: NPU count at which the detailed/symmetric wall ratio is gated — the
#: largest cell the detailed backend benchmarks (the top of its "auto" rung).
RATIO_NPUS = 32
RATIO_ENV = "REPRO_BENCH_MAX_DETAILED_RATIO"
DEFAULT_MAX_DETAILED_RATIO = 2.0

#: Relative slack for the "exact" simulated-result comparison; absorbs float
#: formatting of the JSON snapshot only, exactly like the golden-value suite.
SIM_REL_TOL = 1e-9

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

Key = Tuple[str, int, str]


def _load_rows(path: Path) -> Dict[Key, Dict[str, object]]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {path} is not valid JSON: {exc}")
    rows = payload.get("results")
    if not isinstance(rows, list) or not rows:
        raise SystemExit(f"error: {path} has no 'results' rows")
    indexed: Dict[Key, Dict[str, object]] = {}
    for row in rows:
        key = (str(row["backend"]), int(row["num_npus"]), str(row["workload"]))
        indexed[key] = row
    return indexed


def compare(
    baseline: Dict[Key, Dict[str, object]],
    fresh: Dict[Key, Dict[str, object]],
    tolerance: float,
) -> List[str]:
    """All regression messages between two benchmark row sets (empty = pass)."""
    problems: List[str] = []
    for key in sorted(set(baseline) - set(fresh)):
        problems.append(f"cell {key} is in the baseline but missing from the fresh run")
    for key in sorted(set(fresh) - set(baseline)):
        problems.append(
            f"cell {key} is new (not in the baseline); re-baseline to start tracking it"
        )
    for key in sorted(set(baseline) & set(fresh)):
        base_row, fresh_row = baseline[key], fresh[key]
        base_iter = float(base_row["iteration_time_us"])
        fresh_iter = float(fresh_row["iteration_time_us"])
        if abs(fresh_iter - base_iter) > SIM_REL_TOL * max(abs(base_iter), 1.0):
            problems.append(
                f"cell {key}: simulated iteration_time_us changed "
                f"{base_iter!r} -> {fresh_iter!r} (deterministic result; "
                f"re-baseline if the modelling change is intentional)"
            )
        base_wall = float(base_row["wall_s"])
        fresh_wall = float(fresh_row["wall_s"])
        if fresh_wall > base_wall * (1.0 + tolerance):
            problems.append(
                f"cell {key}: wall time regressed {base_wall:.3f}s -> "
                f"{fresh_wall:.3f}s (+{100.0 * (fresh_wall / base_wall - 1.0):.1f}%, "
                f"tolerance {100.0 * tolerance:.0f}%)"
            )
    return problems


def check_detailed_ratio(
    fresh: Dict[Key, Dict[str, object]], max_ratio: float
) -> List[str]:
    """Gate the fresh run's detailed/symmetric wall ratio at :data:`RATIO_NPUS`.

    Compares same-run, same-machine walls, so the ratio is hardware
    independent.  Cells missing either backend are skipped (the baseline
    diff already flags missing cells).
    """
    problems: List[str] = []
    for (backend, npus, workload), row in sorted(fresh.items()):
        if backend != "detailed" or npus != RATIO_NPUS:
            continue
        reference = fresh.get(("symmetric", npus, workload))
        if reference is None:
            continue
        detailed_wall = float(row["wall_s"])
        symmetric_wall = float(reference["wall_s"])
        if symmetric_wall <= 0:
            continue
        ratio = detailed_wall / symmetric_wall
        if ratio > max_ratio:
            problems.append(
                f"detailed backend too slow at {npus} NPUs ({workload}): "
                f"{detailed_wall:.3f}s vs symmetric {symmetric_wall:.3f}s = "
                f"{ratio:.2f}x wall (max {max_ratio:.2f}x; the detailed hot "
                f"path's coalescing/batching must keep this bounded)"
            )
    return problems


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
        "fresh", nargs="?", default=None, help="freshly generated BENCH_backends.json"
    )
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help=f"committed baseline (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help=f"allowed fractional wall-time regression (default {DEFAULT_TOLERANCE}, "
        f"or ${TOLERANCE_ENV})",
    )
    parser.add_argument(
        "--max-detailed-ratio",
        type=float,
        default=None,
        help=f"max detailed/symmetric wall ratio at {RATIO_NPUS} NPUs in the "
        f"fresh run (default {DEFAULT_MAX_DETAILED_RATIO}, or ${RATIO_ENV})",
    )
    parser.add_argument(
        "--service",
        metavar="BENCH_service.json",
        default=None,
        help="also (or only) gate a runner benchmark payload",
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
        help="also (or only) gate a trace-pipeline benchmark payload",
    )
    parser.add_argument(
        "--max-lower-ratio",
        type=float,
        default=None,
        help=f"max trace load+lower wall time as a multiple of the hand-coded "
        f"build (default {DEFAULT_MAX_LOWER_RATIO}, or ${LOWER_RATIO_ENV})",
    )
    args = parser.parse_args(argv)
    if args.fresh is None and args.service is None and args.traces is None:
        parser.error(
            "nothing to gate: pass a BENCH_backends.json, --service and/or --traces"
        )
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = float(os.environ.get(TOLERANCE_ENV, DEFAULT_TOLERANCE))
    if tolerance < 0:
        raise SystemExit(f"error: tolerance must be non-negative, got {tolerance}")
    max_ratio = args.max_detailed_ratio
    if max_ratio is None:
        max_ratio = float(os.environ.get(RATIO_ENV, DEFAULT_MAX_DETAILED_RATIO))
    if max_ratio <= 0:
        raise SystemExit(f"error: max detailed ratio must be positive, got {max_ratio}")

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
    if args.fresh is not None:
        baseline = _load_rows(Path(args.baseline))
        fresh = _load_rows(Path(args.fresh))
        problems += compare(baseline, fresh, tolerance)
        problems += check_detailed_ratio(fresh, max_ratio)

        for key in sorted(set(baseline) & set(fresh)):
            base_wall = float(baseline[key]["wall_s"])
            fresh_wall = float(fresh[key]["wall_s"])
            delta = 100.0 * (fresh_wall / base_wall - 1.0) if base_wall > 0 else 0.0
            backend, npus, workload = key
            print(
                f"{backend:<10} {npus:>3} NPUs {workload}: "
                f"wall {base_wall:.3f}s -> {fresh_wall:.3f}s ({delta:+.1f}%)"
            )
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
    if args.fresh is not None:
        checked.append(
            f"no regressions vs {args.baseline} (wall tolerance "
            f"{100 * tolerance:.0f}%, detailed/symmetric wall ratio at "
            f"{RATIO_NPUS} NPUs <= {max_ratio:.2f}x)"
        )
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
