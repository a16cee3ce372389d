"""Checking declared scenario invariants against result rows.

Invariants are declared in the manifest (see
:class:`repro.scenarios.schema.Invariant`) and checked against the flat
result rows a scenario run produces.  Every check returns a structured
record — ``{"invariant": ..., "ok": ..., "detail": ...}`` — and
:func:`build_violation` folds the failed ones into a single
:class:`~repro.errors.InvariantViolation` summarising every failed
invariant, so a scenario whose promised ``ideal <= ace <= baseline``
ordering breaks fails loudly with the offending rows named.

An invariant whose ``metric`` (or ``by`` field) matches *no* row is itself a
failure: a typo'd metric name must not silently pass, and neither does a NaN
or infinite metric, which no comparison would catch.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.errors import InvariantViolation
from repro.scenarios.schema import Invariant, Scenario

#: Relative slack for ordering comparisons, absorbing float formatting only.
_ORDERING_REL_TOL = 1e-9


def _matches_where(row: Mapping[str, object], where: Mapping[str, object]) -> bool:
    return all(row.get(key) == value for key, value in where.items())


def _rows_for(invariant: Invariant, rows: Sequence[Mapping[str, object]]):
    return [
        row
        for row in rows
        if invariant.metric in row and _matches_where(row, invariant.where)
    ]


def _check_positive(invariant: Invariant, rows) -> Tuple[bool, str]:
    bad = [row for row in rows if not 0.0 < float(row[invariant.metric]) < math.inf]
    if bad:
        worst = bad[0]
        return False, (
            f"{len(bad)} row(s) have non-positive or infinite {invariant.metric!r} "
            f"(first: {invariant.metric}={worst[invariant.metric]!r})"
        )
    return True, f"{len(rows)} row(s) positive"


def _row_name(invariant: Invariant, row: Mapping[str, object], index: int) -> str:
    """A row's ``by`` and ``group_by`` fields, else its index among the checked rows."""
    keys = (invariant.by, *invariant.group_by)
    return ", ".join(f"{key}={row[key]}" for key in keys if key in row) or f"row #{index}"


def _check_bound(invariant: Invariant, rows) -> Tuple[bool, str]:
    failures: List[str] = []
    for index, row in enumerate(rows):
        value = float(row[invariant.metric])
        if not math.isfinite(value):
            failures.append(
                f"[{_row_name(invariant, row, index)}] {invariant.metric}={value} is not finite"
            )
        elif invariant.min is not None and value < invariant.min:
            failures.append(f"{invariant.metric}={value} < min {invariant.min}")
        elif invariant.max is not None and value > invariant.max:
            failures.append(f"{invariant.metric}={value} > max {invariant.max}")
    if failures:
        return False, f"{len(failures)} violation(s); first: {failures[0]}"
    return True, f"{len(rows)} row(s) within bounds"


def _check_ordering(invariant: Invariant, rows) -> Tuple[bool, str]:
    rows = [row for row in rows if invariant.by in row]
    if not rows:
        return False, f"no rows carry field {invariant.by!r}"
    groups: Dict[Tuple, Dict[str, float]] = {}
    failures: List[str] = []
    for index, row in enumerate(rows):
        key = tuple((name, row.get(name)) for name in invariant.group_by)
        value = float(row[invariant.metric])
        if not math.isfinite(value):
            failures.append(
                f"[{_row_name(invariant, row, index)}] {invariant.metric}={value} is not finite"
            )
        groups.setdefault(key, {})[str(row[invariant.by])] = value
    comparisons = 0
    # Group keys may mix str and None (e.g. a null parallelism slice), so
    # sort on the repr rather than the raw values.
    for key, values in sorted(groups.items(), key=lambda item: repr(item[0])):
        present = [(name, values[name]) for name in invariant.order if name in values]
        for (left, left_value), (right, right_value) in zip(present, present[1:]):
            comparisons += 1
            if left_value > right_value * (1.0 + _ORDERING_REL_TOL):
                group = ", ".join(f"{k}={v}" for k, v in key) or "all rows"
                failures.append(
                    f"[{group}] {invariant.metric}: {left}={left_value:g} "
                    f"> {right}={right_value:g}"
                )
    if comparisons == 0:
        return False, (
            f"no group contained two of {list(invariant.order)} "
            f"(field {invariant.by!r}); is the ordering declared against the "
            f"right rows?"
        )
    if failures:
        return False, f"{len(failures)} violation(s); first: {failures[0]}"
    return True, f"{comparisons} ordered pair(s) hold across {len(groups)} group(s)"


def check_invariant(
    invariant: Invariant, rows: Sequence[Mapping[str, object]]
) -> Dict[str, object]:
    """Check one invariant; returns ``{"invariant", "ok", "detail"}``."""
    selected = _rows_for(invariant, rows)
    if not selected:
        ok, detail = False, (
            f"no result row carries metric {invariant.metric!r}"
            + (f" matching where={dict(invariant.where)}" if invariant.where else "")
        )
    elif invariant.kind == "positive":
        ok, detail = _check_positive(invariant, selected)
    elif invariant.kind == "bound":
        ok, detail = _check_bound(invariant, selected)
    else:
        ok, detail = _check_ordering(invariant, selected)
    return {"invariant": invariant.describe(), "kind": invariant.kind, "ok": ok, "detail": detail}


def check_invariants(
    scenario: Scenario, rows: Sequence[Mapping[str, object]]
) -> List[Dict[str, object]]:
    """Check every declared invariant of ``scenario`` against ``rows``."""
    return [check_invariant(invariant, rows) for invariant in scenario.invariants]


def build_violation(
    scenario_name: str, records: Sequence[Mapping[str, object]]
) -> "InvariantViolation | None":
    """The :class:`InvariantViolation` for a set of check records, or ``None``.

    The scenario execution path raises it, so the failure message has
    exactly one source of truth.
    """
    failures = [record for record in records if not record["ok"]]
    if not failures:
        return None
    lines = "\n".join(f"  - {f['invariant']}: {f['detail']}" for f in failures)
    return InvariantViolation(
        f"scenario {scenario_name!r}: {len(failures)} of {len(records)} "
        f"invariant(s) violated:\n{lines}"
    )
