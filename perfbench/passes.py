"""One cold pass and its warm re-runs, measured in a fresh process.

``run.py`` starts this script once per repetition, so the planner's plan
cache and the result cache start empty, as they do for a ``repro run``
user.  It prints ``READY`` as soon as the job list is built and validated
(``run.py`` times set-up up to that line), then one JSON object with each
cell's host seconds in:

* the cold pass -- every cell through ``SweepRunner(workers=1)``, one job
  at a time: simulate, ``encode_result``, store into a fresh disk
  ``ResultCache``;
* the warm passes -- at least three, :data:`WARM_READS` reads in all, each
  read by a new runner and a new ``ResultCache`` on the same directory:
  disk read, then decode.  The warm pass time is the sum over cells of each
  cell's mean read.

Each time is given as measured and scaled to the reference host speed by
the bursts of ``speed.py`` around it; ``setup_scale`` is the factor for the
set-up that ``run.py`` times.  With ``--setup-only`` the object holds only
``setup_scale``.

Every result is checked by digest as soon as its job returns, outside the
timed region, and then dropped.

Usage: ``python3 perfbench/passes.py --workload NAME --seed N [--trace]
[--setup-only]``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import repro  # noqa: E402
from repro.runner import ResultCache, SimJob, SweepRunner  # noqa: E402
from repro.runner.pool import JobOutcome  # noqa: E402
from repro.runner.serialization import encode_result  # noqa: E402

import speed  # noqa: E402
from cells import Cell, build_cells  # noqa: E402
from layers import LayerTrace, install  # noqa: E402

#: Warm reads per untraced repetition, in passes over all cells (one pass
#: when traced).  A read takes about a millisecond, shorter than the host's
#: slow spells, so one alone would be all noise.
WARM_READS = 300

#: Taken before :func:`install` wraps them, so the benchmark's own
#: bookkeeping never shows up in the layer trace.
_spec_hash = SimJob.spec_hash
_encode = encode_result


def digest(value: object) -> str:
    """SHA-256 of a result's sorted-key ``encode_result`` JSON."""
    text = json.dumps(_encode(value), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Pass:
    """One pass over the cells: host seconds, probe marks and digests."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.cell_s: Dict[str, float] = {}
        self.marks: Dict[str, int] = {}
        self.digests: Dict[str, str] = {}
        self.errors: Dict[str, str] = {}
        self.rows: List[dict] = []
        self.hits = self.lookups = 0

    def run(
        self, runner: SweepRunner, name: str, job: SimJob, probe: speed.SpeedProbe
    ) -> JobOutcome:
        """Time one cell on ``runner``, record its digest, return its outcome."""
        self.marks[name] = probe.mark()
        hits, misses = runner.cache.hits, runner.cache.misses
        start = time.perf_counter()
        outcome = runner.run([job])[0]
        self.cell_s[name] = time.perf_counter() - start
        probe.after(self.cell_s[name])
        self.hits += runner.cache.hits - hits
        self.lookups += runner.cache.hits + runner.cache.misses - hits - misses
        if outcome.ok:
            self.digests[name] = digest(outcome.value)
        else:
            self.errors[name] = outcome.error.strip().splitlines()[-1]
        return outcome


def run_cells(
    cells: List[Cell], cache_dir: str, trace: LayerTrace, probe: speed.SpeedProbe, warm: int
) -> List[Pass]:
    """The cold pass, then ``warm`` warm passes, one job at a time.

    Each warm read follows a :meth:`SpeedProbe.read` of a reference file.
    """
    reference = Path(cache_dir) / "reference.data"
    reference.write_text(speed.reference_document(), encoding="utf-8")
    gc.collect()
    cold_runner = SweepRunner(workers=1, cache=ResultCache(cache_dir))
    passes = [Pass("cold")] + [Pass("warm") for _ in range(warm)]
    for name, job in cells:
        events_before = trace.events
        outcome = passes[0].run(cold_runner, name, job, probe)
        passes[0].rows.append(
            {
                "cell": name,
                "spec_hash": _spec_hash(job),
                "host_s": passes[0].cell_s[name],
                "job_s": outcome.duration_s,
                "iteration_time_us": getattr(outcome.value, "iteration_time_us", None),
                "events": trace.events - events_before,
            }
        )
    gc.collect()
    for warm_pass in passes[1:]:
        for name, job in cells:
            probe.read(reference)
            warm_pass.run(SweepRunner(workers=1, cache=ResultCache(cache_dir)), name, job, probe)
    return passes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true", help="time the layers")
    parser.add_argument("--setup-only", action="store_true", help="stop after READY")
    args = parser.parse_args()

    trace = LayerTrace()
    install(trace, spans=args.trace)
    compile_start = time.perf_counter()
    cells = build_cells(args.workload, args.seed, ROOT)
    compile_s = time.perf_counter() - compile_start
    print("READY", flush=True)
    probe = speed.SpeedProbe()
    if args.setup_only:
        print(json.dumps({"setup_scale": probe.scale(0)}))
        return 0

    scratch = ROOT / ".perfbench-cache"
    scratch.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        passes = 1 if args.trace else max(3, round(WARM_READS / len(cells)))
        cold, *warm = run_cells(cells, cache_dir, trace, probe, passes)
        bytes_written = sum(p.stat().st_size for p in Path(cache_dir).rglob("*.json"))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    cold_scale = {name: probe.scale(mark) for name, mark in cold.marks.items()}
    warm_s = sum(statistics.fmean(p.cell_s[name] for p in warm) for name, _ in cells)
    samples = [seconds for burst in probe.bursts for seconds in burst]
    for row in cold.rows:
        row["scale"] = cold_scale[row["cell"]]

    result: Dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "compile_s": compile_s,
        "setup_scale": probe.scale(0),
        "scale": speed.REFERENCE_S * len(samples) / sum(samples),
        "reference_s": [statistics.fmean(burst) for burst in probe.bursts],
        "cold": cold.cell_s,
        "cold_scaled": {name: s * cold_scale[name] for name, s in cold.cell_s.items()},
        "job": {row["cell"]: row["job_s"] for row in cold.rows},
        "job_scaled": {row["cell"]: row["job_s"] * row["scale"] for row in cold.rows},
        "warm_s": warm_s,
        "warm_scaled_s": warm_s * probe.read_scale(),
        "warm_total_s": sum(sum(p.cell_s.values()) for p in warm),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": [
            {"name": p.name, "digests": p.digests, "errors": p.errors} for p in [cold, *warm]
        ],
        "rows": cold.rows,
        "events": trace.events,
        "engine_s": trace.engine_s,
        "bytes_written": bytes_written,
        "warm_hits": sum(p.hits for p in warm),
        "warm_lookups": sum(p.lookups for p in warm),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "repro": repro.__version__,
        },
    }
    if args.trace:
        result["layers"] = {"self_s": trace.self_s, "calls": trace.calls}
        result["counts"] = dict(trace.counts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
