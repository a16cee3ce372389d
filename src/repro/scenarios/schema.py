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
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import ScenarioError

#: Manifest schema version understood by this package.
SCHEMA_VERSION = 1

#: Suite kinds a manifest may declare.
SUITE_KINDS = (
    "grid",
    "network_drive",
    "cross_topology",
    "model_agreement",
    "area_power",
    "figure",
)

#: Invariant kinds a manifest may assert over its result rows.
INVARIANT_KINDS = ("ordering", "bound", "positive")

_NAME_PATTERN = re.compile(r"^[a-z0-9][a-z0-9-]*$")

_SCENARIO_FIELDS = ("schema", "name", "title", "description", "tags", "suites", "invariants")


def _type_name(value: object) -> str:
    return type(value).__name__


def _expect_mapping(value: object, context: str) -> Mapping[str, object]:
    if not isinstance(value, Mapping):
        raise ScenarioError(f"{context}: expected an object, got {_type_name(value)}")
    for key in value:
        if not isinstance(key, str):
            raise ScenarioError(f"{context}: object keys must be strings, got {key!r}")
    return value


def _reject_unknown(data: Mapping[str, object], allowed: Sequence[str], context: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ScenarioError(
            f"{context}: unknown field(s) {unknown}; allowed fields: {sorted(allowed)}"
        )


def _str_field(data: Mapping[str, object], name: str, context: str, default: object = None) -> str:
    value = data.get(name, default)
    if not isinstance(value, str):
        raise ScenarioError(f"{context}: field {name!r} must be a string, got {_type_name(value)}")
    return value


def _opt_str_field(data: Mapping[str, object], name: str, context: str) -> Optional[str]:
    value = data.get(name)
    if value is not None and not isinstance(value, str):
        raise ScenarioError(
            f"{context}: field {name!r} must be a string or null, got {_type_name(value)}"
        )
    return value


def _bool_field(data: Mapping[str, object], name: str, context: str, default: bool) -> bool:
    value = data.get(name, default)
    if not isinstance(value, bool):
        raise ScenarioError(f"{context}: field {name!r} must be a boolean, got {_type_name(value)}")
    return value


def _int_field(data: Mapping[str, object], name: str, context: str, default: object = None) -> int:
    value = data.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(
            f"{context}: field {name!r} must be an integer, got {_type_name(value)}"
        )
    return value


def _opt_int_field(data: Mapping[str, object], name: str, context: str) -> Optional[int]:
    if data.get(name) is None:
        return None
    return _int_field(data, name, context)


def _opt_number_field(data: Mapping[str, object], name: str, context: str) -> Optional[float]:
    value = data.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{context}: field {name!r} must be a number, got {_type_name(value)}")
    return float(value)


def _str_tuple_field(
    data: Mapping[str, object],
    name: str,
    context: str,
    default: Sequence[str] = (),
    required: bool = False,
) -> Tuple[str, ...]:
    if name not in data:
        if required:
            raise ScenarioError(f"{context}: required field {name!r} is missing")
        return tuple(default)
    value = data[name]
    if not isinstance(value, Sequence) or isinstance(value, str):
        raise ScenarioError(
            f"{context}: field {name!r} must be a list of strings, got {_type_name(value)}"
        )
    for item in value:
        if not isinstance(item, str):
            raise ScenarioError(
                f"{context}: field {name!r} must contain only strings, got {item!r}"
            )
    return tuple(value)


def _int_tuple_field(
    data: Mapping[str, object], name: str, context: str, default: Sequence[int] = ()
) -> Tuple[int, ...]:
    if name not in data:
        return tuple(default)
    value = data[name]
    if not isinstance(value, Sequence) or isinstance(value, str):
        raise ScenarioError(
            f"{context}: field {name!r} must be a list of integers, got {_type_name(value)}"
        )
    for item in value:
        if isinstance(item, bool) or not isinstance(item, int):
            raise ScenarioError(
                f"{context}: field {name!r} must contain only integers, got {item!r}"
            )
    return tuple(value)


def _opt_str_list_field(data: Mapping[str, object], name: str, context: str) -> None:
    """Validate a list whose entries are strings or ``null`` (axis lists)."""
    if name not in data:
        return
    value = data[name]
    if not isinstance(value, Sequence) or isinstance(value, str):
        raise ScenarioError(
            f"{context}: field {name!r} must be a list of strings or nulls, "
            f"got {_type_name(value)}"
        )
    for item in value:
        if item is not None and not isinstance(item, str):
            raise ScenarioError(
                f"{context}: field {name!r} entries must be strings or null, got {item!r}"
            )


def _overrides_field(data: Mapping[str, object], name: str, context: str) -> Dict[str, object]:
    value = data.get(name, {})
    mapping = _expect_mapping(value, f"{context}: field {name!r}")
    return json.loads(json.dumps(mapping))  # deep copy via plain JSON types


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

#: Per-kind (allowed, required) manifest fields, beyond the common ``kind``.
_SUITE_FIELDS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    # The (system x workload-or-trace x size) grid once per cell of the
    # product of the GRID_AXES lists.
    "grid": (
        ("systems", "workloads", "traces", "sizes")
        + tuple(name for name, _ in GRID_AXES)
        + ("iterations", "chunk_bytes", "fast", "overlap_embedding", "cost_table"),
        (),
    ),
    "network_drive": (
        (
            "systems",
            "payload_bytes",
            "chunk_bytes",
            "fabrics",
            "algorithms",
            "backends",
            "ops",
            "overrides",
        ),
        ("payload_bytes", "fabrics"),
    ),
    "cross_topology": (("op", "sizes", "systems", "payload_bytes", "chunk_bytes"), ()),
    # Every cell once per model of a pair; ``knob`` names the job field the
    # pair varies and ``backends`` the pair itself.
    "model_agreement": (
        ("knob", "system", "training_cells", "drive_cells", "iterations", "backends"),
        ("knob",),
    ),
    "area_power": (("ace",), ()),
    "figure": (("figure", "fast", "options"), ("figure",)),
}


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
        mapping = _expect_mapping(data, context)
        kind = _str_field(mapping, "kind", context, default="")
        if kind not in SUITE_KINDS:
            raise ScenarioError(
                f"{context}: unknown suite kind {kind!r}; expected one of {list(SUITE_KINDS)}"
            )
        context = f"{context} ({kind})"
        allowed, required = _SUITE_FIELDS[kind]
        _reject_unknown(mapping, ("kind",) + allowed, context)
        for name in required:
            if name not in mapping:
                raise ScenarioError(f"{context}: required field {name!r} is missing")
        spec = {key: value for key, value in mapping.items() if key != "kind"}
        cls._validate_types(kind, spec, context)
        return cls(kind=kind, spec=json.loads(json.dumps(spec)))

    @staticmethod
    def _validate_types(kind: str, spec: Mapping[str, object], context: str) -> None:
        """Type-check the declared fields (defaults are the loader's job)."""
        if kind == "grid":
            _str_tuple_field(spec, "systems", context)
            if "traces" in spec:
                for name in ("workloads", "fast", "overlap_embedding"):
                    if name in spec:
                        raise ScenarioError(
                            f"{context}: field {name!r} does not apply to 'traces' grids"
                        )
                _str_tuple_field(spec, "traces", context)
            elif "cost_table" in spec:
                raise ScenarioError(f"{context}: field 'cost_table' needs a 'traces' list")
            _str_tuple_field(spec, "workloads", context)
            _int_tuple_field(spec, "sizes", context)
            for name, _ in GRID_AXES:
                _opt_str_list_field(spec, name, context)
            if "iterations" in spec:
                _int_field(spec, "iterations", context)
            _opt_int_field(spec, "chunk_bytes", context)
            _bool_field(spec, "fast", context, True)
            _bool_field(spec, "overlap_embedding", context, False)
            _opt_str_field(spec, "cost_table", context)
        elif kind == "network_drive":
            _str_tuple_field(spec, "systems", context)
            _int_field(spec, "payload_bytes", context)
            _opt_int_field(spec, "chunk_bytes", context)
            _str_tuple_field(spec, "fabrics", context, required=True)
            _str_tuple_field(spec, "algorithms", context)
            _opt_str_list_field(spec, "backends", context)
            _str_tuple_field(spec, "ops", context)
            _overrides_field(spec, "overrides", context)
        elif kind == "cross_topology":
            if "op" in spec:
                _str_field(spec, "op", context)
            _int_tuple_field(spec, "sizes", context)
            _str_tuple_field(spec, "systems", context)
            _opt_int_field(spec, "payload_bytes", context)
            _opt_int_field(spec, "chunk_bytes", context)
        elif kind == "model_agreement":
            _str_field(spec, "knob", context)
            if "system" in spec:
                _str_field(spec, "system", context)
            for name, kinds in (("training_cells", (str, int)), ("drive_cells", (str, str))):
                cells = spec.get(name, [])
                if not isinstance(cells, Sequence) or isinstance(cells, str):
                    raise ScenarioError(f"{context}: field {name!r} must be a list of pairs")
                for cell in cells:
                    ok = (
                        isinstance(cell, Sequence)
                        and not isinstance(cell, str)
                        and len(cell) == 2
                        and isinstance(cell[0], kinds[0])
                        and isinstance(cell[1], kinds[1])
                        and not isinstance(cell[1], bool)
                    )
                    if not ok:
                        raise ScenarioError(
                            f"{context}: field {name!r} entries must be "
                            f"[{kinds[0].__name__}, {kinds[1].__name__}] pairs, got {cell!r}"
                        )
            if "iterations" in spec:
                _int_field(spec, "iterations", context)
            if "backends" in spec:
                # The model pair, e.g. ["detailed", "hybrid"]; the knob and
                # the model names are resolved at compile time.
                pair = spec["backends"]
                ok = (
                    isinstance(pair, Sequence)
                    and not isinstance(pair, str)
                    and len(pair) == 2
                    and all(isinstance(name, str) for name in pair)
                )
                if not ok:
                    raise ScenarioError(
                        f"{context}: field 'backends' must be a pair of model names, got {pair!r}"
                    )
        elif kind == "area_power":
            _overrides_field(spec, "ace", context)
        elif kind == "figure":
            _str_field(spec, "figure", context)
            _bool_field(spec, "fast", context, True)
            _overrides_field(spec, "options", context)

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

_INVARIANT_FIELDS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "ordering": (("metric", "order", "by", "group_by", "where"), ("metric", "order")),
    "bound": (("metric", "min", "max", "where"), ("metric",)),
    "positive": (("metric", "where"), ("metric",)),
}


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
        mapping = _expect_mapping(data, context)
        kind = _str_field(mapping, "kind", context, default="")
        if kind not in INVARIANT_KINDS:
            raise ScenarioError(
                f"{context}: unknown invariant kind {kind!r}; "
                f"expected one of {list(INVARIANT_KINDS)}"
            )
        context = f"{context} ({kind})"
        allowed, required = _INVARIANT_FIELDS[kind]
        _reject_unknown(mapping, ("kind",) + allowed, context)
        for name in required:
            if name not in mapping:
                raise ScenarioError(f"{context}: required field {name!r} is missing")
        metric = _str_field(mapping, "metric", context)
        where = dict(_expect_mapping(mapping.get("where", {}), f"{context}: field 'where'"))
        kwargs: Dict[str, object] = {"kind": kind, "metric": metric, "where": where}
        if kind == "ordering":
            order = _str_tuple_field(mapping, "order", context, required=True)
            if len(order) < 2:
                raise ScenarioError(f"{context}: 'order' needs at least two names, got {order!r}")
            kwargs["order"] = order
            kwargs["by"] = _str_field(mapping, "by", context, default="system")
            kwargs["group_by"] = _str_tuple_field(
                mapping, "group_by", context, default=("workload", "npus")
            )
        elif kind == "bound":
            low = _opt_number_field(mapping, "min", context)
            high = _opt_number_field(mapping, "max", context)
            if low is None and high is None:
                raise ScenarioError(f"{context}: a bound needs 'min' and/or 'max'")
            if low is not None and high is not None and low > high:
                raise ScenarioError(f"{context}: min ({low}) exceeds max ({high})")
            kwargs["min"] = low
            kwargs["max"] = high
        return cls(**kwargs)

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
        mapping = _expect_mapping(data, source)
        _reject_unknown(mapping, _SCENARIO_FIELDS, source)
        if "schema" not in mapping:
            raise ScenarioError(f"{source}: required field 'schema' is missing")
        schema = _int_field(mapping, "schema", source)
        if schema != SCHEMA_VERSION:
            raise ScenarioError(
                f"{source}: unsupported schema version {schema!r}; "
                f"this build understands version {SCHEMA_VERSION}"
            )
        name = _str_field(mapping, "name", source, default="")
        if not _NAME_PATTERN.match(name):
            raise ScenarioError(
                f"{source}: scenario name {name!r} must be a lowercase slug "
                f"matching {_NAME_PATTERN.pattern!r}"
            )
        context = f"scenario {name!r}"
        description = _str_field(mapping, "description", context, default="")
        if not description:
            raise ScenarioError(f"{context}: a non-empty 'description' is required")
        title = _str_field(mapping, "title", context, default="")
        tags = _str_tuple_field(mapping, "tags", context)
        raw_suites = mapping.get("suites")
        if not isinstance(raw_suites, Sequence) or isinstance(raw_suites, str) or not raw_suites:
            raise ScenarioError(f"{context}: 'suites' must be a non-empty list")
        suites = tuple(
            Suite.from_dict(entry, f"{context} suite #{index}")
            for index, entry in enumerate(raw_suites)
        )
        raw_invariants = mapping.get("invariants", [])
        if not isinstance(raw_invariants, Sequence) or isinstance(raw_invariants, str):
            raise ScenarioError(f"{context}: 'invariants' must be a list")
        invariants = tuple(
            Invariant.from_dict(entry, f"{context} invariant #{index}")
            for index, entry in enumerate(raw_invariants)
        )
        return cls(
            name=name,
            description=description,
            title=title,
            tags=tags,
            suites=suites,
            invariants=invariants,
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
