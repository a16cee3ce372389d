#!/usr/bin/env python3
"""Trace-pipeline benchmark: load+lower wall time vs hand-coded job build.

Emits ``BENCH_traces.json``.  For each benchmarked workload and platform
size (8–64 NPUs) one row records:

* ``hand_build_s`` — wall time of the hand-coded path: ``build_workload``
  constructing the Workload object a training SimJob executes.
* ``trace_load_lower_s`` — wall time of the trace path for the same cell:
  parse the trace JSON text, validate the operator graph, and lower it
  through the device cost table into the identical Workload.
* ``lower_ratio`` — ``trace_load_lower_s / hand_build_s``.  Both walls come
  from the same run on the same machine, so the ratio is
  hardware-independent; ``compare_bench.py --traces`` gates it (env
  ``REPRO_BENCH_MAX_LOWER_RATIO``) so trace loading stays a negligible
  fraction of a sweep cell.
* ``sim_wall_s`` / ``iteration_time_us`` — one end-to-end simulation of the
  lowered workload on the symmetric backend, asserting (for converted
  built-ins) that the trace path reproduces the hand-coded iteration time
  exactly.

Usage::

    PYTHONPATH=src python benchmarks/bench_traces.py [--out BENCH_traces.json]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro import build_workload, make_system, simulate_training
from repro.traces import Trace, lower_trace, workload_to_trace

REPO_ROOT = Path(__file__).resolve().parents[1]
SHIPPED_TRACES = REPO_ROOT / "traces"

#: Platform sizes benchmarked (the paper's 3D-torus rungs up to 64 NPUs).
SIZES = (8, 16, 32, 64)

#: Converted built-ins (hand-coded reference exists) plus the shipped MoE
#: trace (trace-only: no hand path, so no ratio row).
CONVERTED = ("resnet50", "dlrm")
SHIPPED = ("moe-transformer",)

#: Timing repeats; the minimum is reported, like timeit.
REPEATS = 5

CHUNK_BYTES = 1 << 20


def _best(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_cell(
    name: str, text: str, num_npus: int, hand_coded: bool
) -> Dict[str, object]:
    """One benchmark row: load+lower vs hand build, plus one simulation."""

    def trace_path():
        return lower_trace(Trace.from_dict(json.loads(text)))

    row: Dict[str, object] = {
        "workload": name,
        "num_npus": num_npus,
        "trace_load_lower_s": _best(trace_path),
    }
    workload = trace_path()
    golden_iteration_us: Optional[float] = None
    if hand_coded:
        row["hand_build_s"] = _best(lambda: build_workload(name))
        row["lower_ratio"] = row["trace_load_lower_s"] / row["hand_build_s"]
        golden = simulate_training(
            make_system("ace"),
            build_workload(name),
            num_npus=num_npus,
            iterations=1,
            chunk_bytes=CHUNK_BYTES,
        )
        golden_iteration_us = golden.iteration_time_us
    start = time.perf_counter()
    result = simulate_training(
        make_system("ace"),
        workload,
        num_npus=num_npus,
        iterations=1,
        chunk_bytes=CHUNK_BYTES,
    )
    row["sim_wall_s"] = time.perf_counter() - start
    row["iteration_time_us"] = result.iteration_time_us
    if golden_iteration_us is not None:
        drift = abs(result.iteration_time_us - golden_iteration_us)
        assert drift <= 1e-9 * max(abs(golden_iteration_us), 1.0), (
            f"{name} at {num_npus} NPUs: trace replay {result.iteration_time_us} "
            f"!= hand-coded {golden_iteration_us}"
        )
    return row


def run_trace_bench() -> List[Dict[str, object]]:
    """All benchmark rows (converted built-ins + shipped traces, all sizes)."""
    rows: List[Dict[str, object]] = []
    for name in CONVERTED:
        text = json.dumps(workload_to_trace(build_workload(name)).to_dict())
        for num_npus in SIZES:
            rows.append(_bench_cell(name, text, num_npus, hand_coded=True))
    for name in SHIPPED:
        text = (SHIPPED_TRACES / f"{name}.json").read_text(encoding="utf-8")
        for num_npus in SIZES:
            rows.append(_bench_cell(name, text, num_npus, hand_coded=False))
    return rows


def format_trace_bench(rows: List[Dict[str, object]]) -> str:
    """Human-readable table of the benchmark rows."""
    lines = [
        f"{'workload':<16} {'npus':>4} {'load+lower':>11} {'hand build':>11} "
        f"{'ratio':>7} {'sim wall':>9}"
    ]
    for row in rows:
        hand = row.get("hand_build_s")
        lines.append(
            f"{row['workload']:<16} {row['num_npus']:>4} "
            f"{1e3 * row['trace_load_lower_s']:>9.2f}ms "
            f"{(1e3 * hand if hand is not None else float('nan')):>9.2f}ms "
            f"{row.get('lower_ratio', float('nan')):>7.2f} "
            f"{row['sim_wall_s']:>8.3f}s"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_traces.json", help="output JSON path")
    args = parser.parse_args(argv)
    rows = run_trace_bench()
    payload = {"benchmark": "traces", "schema": 1, "results": rows}
    out_path = Path(args.out)
    with out_path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(format_trace_bench(rows))
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
