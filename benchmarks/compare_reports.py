#!/usr/bin/env python3
"""Assert two scenario reports are byte-identical up to timing/provenance.

The concurrent-runs CI job runs the same scenario in two processes at once
on one cache directory, then feeds both reports here.  One run simulates a
spec and the other serves it from the cache, and the two must still report
*byte-identical results*.  The committed-reports CI job likewise compares a
fresh run of each manifest against its reference in ``benchmarks/reports/``.
Every row's ``spec_hash`` and every simulation metric must match exactly —
not approximately — between the two reports.  Only fields that describe
*how* a row was obtained rather than *what* was simulated are ignored:

* per-row ``wall_s`` (timing) and ``from_cache`` (provenance),
* the top-level ``wall_s`` and ``runner`` counter block.

Invariant records are compared too (their pass/fail and detail text are
functions of the simulated values alone).

Usage::

    PYTHONPATH=src python benchmarks/compare_reports.py first.json second.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

#: Per-row fields describing execution, not results.
ROW_IGNORED = ("wall_s", "from_cache")
#: Top-level fields describing execution, not results.
TOP_IGNORED = ("wall_s", "runner")


def _load(path: Path) -> Dict[str, object]:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {path} is not valid JSON: {exc}")


def _normalise(report: Dict[str, object]) -> Dict[str, object]:
    """The comparable core of a report: results minus timing/provenance."""
    rows = report.get("results")
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise SystemExit(
            "error: not a scenario report (expected a 'results' list of row objects)"
        )
    trimmed = {k: v for k, v in report.items() if k not in TOP_IGNORED}
    trimmed["results"] = [
        {k: v for k, v in row.items() if k not in ROW_IGNORED} for row in rows
    ]
    return trimmed


def diff_reports(left: Dict[str, object], right: Dict[str, object]) -> List[str]:
    """Every way two normalised reports differ (empty list = identical)."""
    problems: List[str] = []
    left, right = _normalise(left), _normalise(right)
    for field in sorted((set(left) | set(right)) - {"results"}):
        if left.get(field) != right.get(field):
            problems.append(
                f"field {field!r} differs: {left.get(field)!r} vs {right.get(field)!r}"
            )
    left_rows = left["results"]
    right_rows = right["results"]
    if len(left_rows) != len(right_rows):
        problems.append(f"row count differs: {len(left_rows)} vs {len(right_rows)}")
        return problems
    for index, (a, b) in enumerate(zip(left_rows, right_rows)):
        if a == b:
            continue
        keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        detail = ", ".join(f"{k}: {a.get(k)!r} vs {b.get(k)!r}" for k in keys)
        problems.append(
            f"row {index} (spec {str(a.get('spec_hash'))[:12]}) differs: {detail}"
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("left", help="first scenario report")
    parser.add_argument("right", help="second scenario report")
    args = parser.parse_args(argv)
    left = _load(Path(args.left))
    right = _load(Path(args.right))
    problems = diff_reports(left, right)
    if problems:
        print(
            f"FAIL: {args.left} and {args.right} differ beyond timing/provenance:",
            file=sys.stderr,
        )
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    rows = len(left.get("results", []))
    print(
        f"OK: {args.left} and {args.right} are byte-identical "
        f"({rows} row(s), spec_version {left.get('spec_version')})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
