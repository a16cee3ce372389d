"""Versioned schema for declarative scenario manifests.

A *scenario* is a named, data-only description of a batch of simulations —
the paper's (system x workload x size x design-point) grid cells, or any new
suite a user wants to declare — stored as one JSON file per scenario under
``scenarios/`` at the repository root.  The schema is deliberately small and
strictly validated: every unknown field, wrong type, or unknown name raises a
:class:`~repro.errors.ScenarioError` pointing at the offending declaration,
so a bad manifest fails at load time with a clear message rather than deep
inside a worker process.

A manifest looks like::

    {
      "schema": 1,
      "name": "paper-fast",
      "description": "Fast paper grid: resnet50 @ 16 NPUs, all five systems",
      "tags": ["paper", "fast"],
      "suites": [
        {"kind": "grid", "workloads": ["resnet50"], "sizes": [16]}
      ],
      "invariants": [
        {"kind": "ordering", "metric": "iteration_time_us",
         "order": ["ideal", "ace", "baseline_no_overlap"]}
      ]
    }

The suite kinds cover every experiment shape in the repo (see
:data:`SUITE_KINDS`); three invariant kinds (:data:`INVARIANT_KINDS`) express
the result properties a scenario promises — e.g. the paper's
``ideal <= ace <= baseline`` ordering.  The loader
(:mod:`repro.scenarios.loader`) compiles a validated :class:`Scenario` into a
batch of :class:`~repro.runner.SimJob` specs.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.config.fields import POSITIVE, REQUIRED, check, check_object
from repro.errors import ScenarioError

#: Manifest schema version understood by this package.
SCHEMA_VERSION = 1

_NAME_PATTERN = re.compile(r"^[a-z0-9][a-z0-9-]*$")


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

#: The ``grid`` suite's outer axes, in expansion order: each manifest list
#: and the :class:`~repro.runner.SimJob` field its entries pin.  A ``null``
#: entry (or an absent list) keeps the field's default: the canonical
#: torus, the preset's network and compute models, the planner's ``auto``
#: algorithm and the workload's native parallelism.
GRID_AXES = (
    ("fabrics", "fabric"),
    ("backends", "backend"),
    ("algorithms", "algorithm"),
    ("parallelisms", "parallelism"),
    ("computes", "compute"),
)


@dataclass(frozen=True)
class _GridSuite:
    # The (system x workload-or-trace x size) grid once per cell of the
    # product of the GRID_AXES lists; with ``payload_bytes``, the
    # (op x size x system) grid of single-collective drives instead.
    systems: Tuple[str, ...]
    workloads: Tuple[str, ...]
    traces: Tuple[str, ...]
    sizes: Tuple[int, ...]
    fabrics: Tuple[Optional[str], ...]
    backends: Tuple[Optional[str], ...]
    algorithms: Tuple[Optional[str], ...]
    parallelisms: Tuple[Optional[str], ...]
    computes: Tuple[Optional[str], ...]
    iterations: int
    chunk_bytes: Optional[int]
    fast: bool
    overlap_embedding: bool
    cost_table: Optional[str]
    payload_bytes: int = field(metadata=POSITIVE)
    ops: Tuple[str, ...]


#: ``grid`` fields only workload cells read.
_WORKLOAD_FIELDS = ("workloads", "fast", "overlap_embedding")
#: The fields that turn a ``grid`` suite from workload cells into drive or
#: trace cells, each with the fields those cells cannot use.
_GRID_EXCLUDES = {
    "payload_bytes": _WORKLOAD_FIELDS + ("traces", "iterations", "cost_table"),
    "traces": _WORKLOAD_FIELDS,
}
#: ``grid`` fields read by one kind of cell only: the field that selects
#: those cells, and what it holds.
_GRID_NEEDS = {"cost_table": ("traces", "list"), "ops": ("payload_bytes", "size")}


@dataclass(frozen=True)
class _ModelAgreementSuite:
    # Every cell once per model of a pair; ``knob`` names the job field the
    # pair varies and ``backends`` the pair itself.
    knob: str = field(metadata=REQUIRED)
    system: str
    training_cells: Tuple[Tuple[str, int], ...]
    drive_cells: Tuple[Tuple[str, str], ...]
    iterations: int
    backends: Tuple[str, str]


@dataclass(frozen=True)
class _AreaPowerSuite:
    ace: Mapping[str, object]


@dataclass(frozen=True)
class _FigureSuite:
    figure: str = field(metadata=REQUIRED)
    fast: bool
    options: Mapping[str, object]


#: One field table per suite kind (see :mod:`repro.config.fields`).  Only the
#: fields marked REQUIRED must be present; the loader fills absent ones.
_SUITE_TABLES = {
    "grid": _GridSuite,
    "model_agreement": _ModelAgreementSuite,
    "area_power": _AreaPowerSuite,
    "figure": _FigureSuite,
}

#: Suite kinds a manifest may declare.
SUITE_KINDS = tuple(_SUITE_TABLES)


def _check_grid_source(spec: Mapping[str, object], context: str) -> None:
    """Reject ``grid`` fields that the suite's job source does not use."""
    for source, excluded in _GRID_EXCLUDES.items():
        if source in spec:
            for name in excluded:
                if name in spec:
                    raise ScenarioError(
                        f"{context}: field {name!r} does not apply to {source!r} grids",
                        field=name,
                    )
            break
    for name, (needed, noun) in _GRID_NEEDS.items():
        if name in spec and needed not in spec:
            raise ScenarioError(f"{context}: field {name!r} needs a {needed!r} {noun}", field=name)


@dataclass(frozen=True, eq=True)
class Suite:
    """One validated suite declaration: a kind plus its normalised fields.

    ``spec`` holds exactly the fields the manifest declared (validated for
    name and type); defaults are applied at compile time by the loader so
    that :meth:`to_dict` round-trips the manifest as written.
    """

    kind: str
    spec: Mapping[str, object] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: object, context: str) -> "Suite":
        """Validate one manifest suite entry."""
        kind = check_object(data, context, ScenarioError).get("kind")
        if kind not in SUITE_KINDS:
            raise ScenarioError(
                f"{context}: unknown suite kind {kind!r}; expected one of {list(SUITE_KINDS)}"
            )
        context = f"{context} ({kind})"
        spec = {key: value for key, value in data.items() if key != "kind"}
        check(_SUITE_TABLES[kind], spec, context, ScenarioError)
        if kind == "grid":
            _check_grid_source(spec, context)
        return cls(kind=kind, spec=json.loads(json.dumps(spec)))

    def to_dict(self) -> Dict[str, object]:
        """The manifest form of this suite (``kind`` plus declared fields)."""
        return {"kind": self.kind, **{k: v for k, v in sorted(self.spec.items())}}

    def spec_hash(self, version: str) -> str:
        """Stable content hash of this suite declaration, salted with ``version``.

        Used as the ``spec_hash`` of figure-suite report rows, mirroring
        :meth:`repro.runner.SimJob.spec_hash` for job-based rows.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(f"{version}:{canonical}".encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _OrderingInvariant:
    metric: str = field(metadata=REQUIRED)
    order: Tuple[str, ...] = field(metadata=REQUIRED)
    by: str
    group_by: Tuple[str, ...]
    where: Mapping[str, object]


@dataclass(frozen=True)
class _BoundInvariant:
    metric: str = field(metadata=REQUIRED)
    min: Optional[float]
    max: Optional[float]
    where: Mapping[str, object]


@dataclass(frozen=True)
class _PositiveInvariant:
    metric: str = field(metadata=REQUIRED)
    where: Mapping[str, object]


_INVARIANT_TABLES = {
    "ordering": _OrderingInvariant,
    "bound": _BoundInvariant,
    "positive": _PositiveInvariant,
}

#: Invariant kinds a manifest may assert over its result rows.
INVARIANT_KINDS = tuple(_INVARIANT_TABLES)


@dataclass(frozen=True, eq=True)
class Invariant:
    """One declared property of a scenario's result rows.

    * ``ordering`` — within each group of rows (grouped by ``group_by``
      fields), the ``metric`` values of the rows whose ``by`` field matches
      each name in ``order`` must be non-decreasing — e.g. the paper's
      ``ideal <= ace <= baseline`` iteration-time ordering.
    * ``bound`` — every row's ``metric`` lies within ``[min, max]``.
    * ``positive`` — every row's ``metric`` is strictly positive.

    ``where`` restricts any invariant to the rows whose fields equal the
    given values, e.g. ``{"component": "ACE (Total)"}``.
    """

    kind: str
    metric: str
    order: Tuple[str, ...] = ()
    by: str = "system"
    group_by: Tuple[str, ...] = ("workload", "npus")
    min: Optional[float] = None
    max: Optional[float] = None
    where: Mapping[str, object] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: object, context: str) -> "Invariant":
        """Validate one manifest invariant entry."""
        kind = check_object(data, context, ScenarioError).get("kind")
        if kind not in INVARIANT_KINDS:
            raise ScenarioError(
                f"{context}: unknown invariant kind {kind!r}; "
                f"expected one of {list(INVARIANT_KINDS)}"
            )
        context = f"{context} ({kind})"
        values = {key: value for key, value in data.items() if key != "kind"}
        check(_INVARIANT_TABLES[kind], values, context, ScenarioError)
        converters = {"order": tuple, "group_by": tuple, "min": float, "max": float, "where": dict}
        for name, convert in converters.items():
            if values.get(name) is not None:
                values[name] = convert(values[name])
        invariant = cls(kind=kind, **values)
        if kind == "ordering" and len(invariant.order) < 2:
            raise ScenarioError(
                f"{context}: 'order' needs at least two names, got {invariant.order!r}"
            )
        if kind == "bound":
            low, high = invariant.min, invariant.max
            if low is None and high is None:
                raise ScenarioError(f"{context}: a bound needs 'min' and/or 'max'")
            if low is not None and high is not None and low > high:
                raise ScenarioError(f"{context}: min ({low}) exceeds max ({high})")
        return invariant

    def to_dict(self) -> Dict[str, object]:
        """The manifest form of this invariant (kind-specific fields only)."""
        data: Dict[str, object] = {"kind": self.kind, "metric": self.metric}
        if self.kind == "ordering":
            data["order"] = list(self.order)
            data["by"] = self.by
            data["group_by"] = list(self.group_by)
        elif self.kind == "bound":
            data["min"] = self.min
            data["max"] = self.max
        if self.where:
            data["where"] = dict(self.where)
        return data

    def describe(self) -> str:
        """One-line human-readable statement of the invariant."""
        if self.kind == "ordering":
            return f"{self.metric}: " + " <= ".join(self.order)
        if self.kind == "positive":
            return f"{self.metric} > 0"
        parts = []
        if self.min is not None:
            parts.append(f"{self.min} <=")
        parts.append(self.metric)
        if self.max is not None:
            parts.append(f"<= {self.max}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=True)
class Scenario:
    """A fully validated scenario manifest."""

    name: str
    description: str
    title: str = ""
    tags: Tuple[str, ...] = ()
    suites: Tuple[Suite, ...] = ()
    invariants: Tuple[Invariant, ...] = ()

    @classmethod
    def from_dict(cls, data: object, source: str = "scenario") -> "Scenario":
        """Validate a parsed manifest; ``source`` names it in error messages."""
        if "schema" not in check_object(data, source, ScenarioError):
            raise ScenarioError(f"{source}: required field 'schema' is missing")
        if data["schema"] != SCHEMA_VERSION:
            raise ScenarioError(
                f"{source}: unsupported schema version {data['schema']!r}; "
                f"this build understands version {SCHEMA_VERSION}"
            )
        values = {key: value for key, value in data.items() if key != "schema"}
        check(cls, values, source, ScenarioError)
        name = data.get("name", "")
        if not _NAME_PATTERN.match(name):
            raise ScenarioError(
                f"{source}: scenario name {name!r} must be a lowercase slug "
                f"matching {_NAME_PATTERN.pattern!r}"
            )
        context = f"scenario {name!r}"
        description = data.get("description", "")
        if not description:
            raise ScenarioError(f"{context}: a non-empty 'description' is required")
        if not data.get("suites"):
            raise ScenarioError(f"{context}: 'suites' must be a non-empty list")
        return cls(
            name=name,
            description=description,
            title=data.get("title", ""),
            tags=tuple(data.get("tags", ())),
            suites=tuple(
                Suite.from_dict(entry, f"{context} suite #{index}")
                for index, entry in enumerate(data["suites"])
            ),
            invariants=tuple(
                Invariant.from_dict(entry, f"{context} invariant #{index}")
                for index, entry in enumerate(data.get("invariants", ()))
            ),
        )

    def to_dict(self) -> Dict[str, object]:
        """The manifest (plain-JSON) form of this scenario — round-trips."""
        data: Dict[str, object] = {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "description": self.description,
        }
        if self.title:
            data["title"] = self.title
        if self.tags:
            data["tags"] = list(self.tags)
        data["suites"] = [suite.to_dict() for suite in self.suites]
        if self.invariants:
            data["invariants"] = [invariant.to_dict() for invariant in self.invariants]
        return data
