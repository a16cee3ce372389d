"""Simulation job specifications.

A :class:`SimJob` captures one simulation request — the system preset plus
configuration overrides, the workload, the platform size, and the chunking /
iteration parameters — as a frozen, hashable, JSON-serializable dataclass.
Two jobs describing the same simulation canonicalise to the same JSON and
therefore the same spec hash, which is what :class:`~repro.runner.cache.ResultCache`
keys on.

Three job kinds cover every experiment in the paper's evaluation:

* ``training`` — a full training-loop co-simulation
  (:func:`repro.training.loop.simulate_training`); Figs. 9b-12.
* ``network_drive`` — a single large collective driven through the fabric in
  isolation (:func:`repro.analysis.bandwidth.measure_network_drive`);
  Figs. 4-6 and the Fig. 9a design-space sweep.
* ``area_power`` — the Table IV area/power roll-up of an ACE configuration
  (:class:`repro.core.area_power.AceAreaPowerModel`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.analysis.bandwidth import measure_network_drive
from repro.collectives.base import CollectiveOp
from repro.collectives.planner import AUTO, algorithms
from repro.compute.backend import resolve_compute_backend_name, validate_compute_backend_name
from repro.config.presets import make_system, torus_shape_for_npus
from repro.config.system import AceConfig, SystemConfig
from repro.core.area_power import AceAreaPowerModel
from repro.errors import ConfigurationError
from repro.network.backend import validate_backend_name
from repro.network.topology import Topology, topology_from_spec, torus_from_shape
from repro.training.loop import simulate_training
from repro.workloads.registry import build_workload

JOB_KINDS = ("training", "network_drive", "area_power")

#: Override sections that map onto the nested :class:`SystemConfig` dataclasses.
_CONFIG_SECTIONS = ("compute", "memory", "network", "ace", "policy")
#: Top-level scalar SystemConfig fields that may be overridden directly.
_CONFIG_SCALARS = (
    "name",
    "collective_scheduling",
    "collective_launch_overhead_ns",
    "network_backend_auto_threshold",
)
#: (SimJob field, SystemConfig field) of each model knob a sweep cell pins.
_JOB_KNOBS = (
    ("algorithm", "collective_algorithm"),
    ("backend", "network_backend"),
    ("compute", "compute_backend"),
    ("parallelism", "parallelism"),
)


def _normalize_overrides(overrides: Mapping[str, object]) -> Dict[str, object]:
    """Validate and deep-copy an overrides mapping into plain JSON types."""
    normalized: Dict[str, object] = {}
    for key, value in overrides.items():
        if key in _CONFIG_SECTIONS:
            if not isinstance(value, Mapping):
                raise ConfigurationError(
                    f"override section {key!r} must be a mapping of field -> value, "
                    f"got {type(value).__name__}"
                )
            section: Dict[str, object] = {}
            for name, item in value.items():
                if not isinstance(name, str):
                    raise ConfigurationError(
                        f"override field names in section {key!r} must be strings"
                    )
                if not isinstance(item, (int, float, bool, str)):
                    raise ConfigurationError(
                        f"override {key}.{name} must be a scalar, got {type(item).__name__}"
                    )
                section[name] = item
            normalized[key] = section
        elif key in _CONFIG_SCALARS:
            if not isinstance(value, (int, float, str)):
                raise ConfigurationError(
                    f"override {key!r} must be a scalar, got {type(value).__name__}"
                )
            normalized[key] = value
        else:
            raise ConfigurationError(
                f"unknown override section {key!r}; expected one of "
                f"{sorted(_CONFIG_SECTIONS + _CONFIG_SCALARS)}"
            )
    return normalized


def section_overrides(**configs) -> Dict[str, Dict[str, object]]:
    """Build an overrides mapping from config dataclass instances.

    >>> section_overrides(network=NetworkConfig(link_efficiency=1.0))
    {'network': {...'link_efficiency': 1.0...}}
    """
    out: Dict[str, Dict[str, object]] = {}
    for section, config in configs.items():
        if section not in _CONFIG_SECTIONS:
            raise ConfigurationError(f"unknown config section {section!r}")
        out[section] = asdict(config)
    return out


@dataclass(frozen=True)
class SimJob:
    """One simulation request, fully described by value.

    The spec is deliberately built from plain JSON types (strings, numbers,
    bools, dicts, and an ``(L, V, H)`` tuple) so that the canonical JSON form
    — and hence :meth:`spec_hash` — is stable across processes and sessions.
    """

    kind: str = "training"
    #: System preset name accepted by :func:`repro.config.presets.make_system`.
    system: str = "ace"
    #: Per-section field overrides applied on top of the preset, e.g.
    #: ``{"ace": {"sram_bytes": 2097152}, "policy": {"comm_sms": 4}}``.
    overrides: Mapping[str, object] = field(default_factory=dict)
    #: Platform size; resolved to the paper's canonical torus shape.
    num_npus: Optional[int] = None
    #: Explicit ``(L, V, H)`` torus shape; takes precedence over ``num_npus``.
    topology: Optional[Tuple[int, int, int]] = None
    #: Topology spec string (``"torus:4x4x4"``, ``"ring:16"``, ``"switch:64"``,
    #: ``"fc:16"``, ``"torus2d:8x8"``); takes precedence over ``topology`` and
    #: ``num_npus`` and is how non-torus fabrics are requested.
    fabric: Optional[str] = None
    #: Collective algorithm for the planner ("auto" = cheapest feasible).
    algorithm: str = AUTO
    #: Network backend executing the job ("symmetric" | "detailed" |
    #: "hybrid" | "auto"); ``None`` keeps the preset's symmetric model.
    backend: Optional[str] = None
    chunk_bytes: Optional[int] = None
    # -- training jobs ---------------------------------------------------
    workload: Optional[str] = None
    #: Operator-graph trace name (``traces/<name>.json``) driving this
    #: training job instead of a built-in ``workload``; exactly one of the
    #: two must be set.
    trace: Optional[str] = None
    #: Device cost table pricing the trace's op descriptors
    #: (see :func:`repro.traces.cost.cost_table_names`); ``None`` uses
    #: :data:`repro.traces.cost.DEFAULT_COST_TABLE`.
    cost_table: Optional[str] = None
    iterations: int = 2
    overlap_embedding: bool = False
    #: Parallelisation strategy spec ("data" | "model" | "hybrid" | "zero" |
    #: "pipeline" | "pipeline:<stages>x<microbatches>"); ``None`` keeps the
    #: workload's native strategy.
    parallelism: Optional[str] = None
    #: Compute backend pricing training kernels ("roofline" |
    #: "execution-unit" | "auto"); ``None`` keeps the preset's roofline model.
    compute: Optional[str] = None
    # -- network-drive jobs ----------------------------------------------
    payload_bytes: Optional[int] = None
    op: str = CollectiveOp.ALL_REDUCE.value

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ConfigurationError(
                f"unknown job kind {self.kind!r}; expected one of {JOB_KINDS}"
            )
        object.__setattr__(self, "overrides", _normalize_overrides(self.overrides))
        if self.topology is not None:
            shape = tuple(int(s) for s in self.topology)
            if len(shape) != 3:
                raise ConfigurationError(
                    f"topology must be an (L, V, H) triple, got {self.topology!r}"
                )
            object.__setattr__(self, "topology", shape)
        if self.algorithm != AUTO and self.algorithm not in algorithms():
            raise ConfigurationError(
                f"unknown collective algorithm {self.algorithm!r}; expected "
                f"'auto' or one of {list(algorithms())}"
            )
        if self.backend is not None:
            validate_backend_name(self.backend)
        for knob in ("compute", "parallelism"):
            if getattr(self, knob) is not None and self.kind != "training":
                raise ConfigurationError(
                    f"{knob} only applies to training jobs, not {self.kind!r}"
                )
        if self.compute is not None:
            validate_compute_backend_name(self.compute)
        if self.fabric is not None:
            # Validate eagerly so a bad spec fails at submission, not in a worker.
            topology_from_spec(self.fabric)
        if self.kind in ("training", "network_drive"):
            if self.fabric is None and self.topology is None:
                if self.num_npus is None:
                    raise ConfigurationError(
                        f"{self.kind} jobs need a fabric spec, an explicit topology, "
                        f"or num_npus"
                    )
                # Sizes without a canonical torus fail here, not in a worker.
                torus_shape_for_npus(self.num_npus)
            if self.chunk_bytes is not None and self.chunk_bytes <= 0:
                raise ConfigurationError("chunk_bytes must be positive")
        if self.trace is not None and self.kind != "training":
            raise ConfigurationError(
                f"traces only apply to training jobs, not {self.kind!r}"
            )
        if self.cost_table is not None:
            if self.trace is None:
                raise ConfigurationError(
                    "cost_table only applies to trace-driven training jobs; "
                    "set a trace name"
                )
            # Registry lookup only — no filesystem IO at submission time; the
            # trace file itself is resolved in the worker at execute().
            from repro.traces.cost import find_cost_table

            find_cost_table(self.cost_table)
        if self.kind == "training":
            if bool(self.workload) == bool(self.trace):
                raise ConfigurationError(
                    "training jobs need exactly one of a workload name or a "
                    "trace name"
                )
            if self.iterations <= 0:
                raise ConfigurationError("iterations must be positive")
        if self.kind == "network_drive":
            if self.payload_bytes is None or self.payload_bytes <= 0:
                raise ConfigurationError("network_drive jobs need a positive payload_bytes")
            try:
                CollectiveOp(self.op)
            except ValueError:
                raise ConfigurationError(
                    f"unknown collective op {self.op!r}; expected one of "
                    f"{[o.value for o in CollectiveOp]}"
                ) from None
        # Presets, override fields and their values (and a parallelism spec)
        # fail here, at submission, rather than in a worker.
        self.build_system()

    # ------------------------------------------------------------------
    # Canonical serialization and hashing
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON dictionary of every spec field (the canonical schema)."""
        data: Dict[str, object] = {name: getattr(self, name) for name in _FIELD_NAMES}
        data["overrides"] = {
            k: dict(v) if isinstance(v, dict) else v for k, v in self.overrides.items()
        }
        if self.topology is not None:
            data["topology"] = list(self.topology)
        return data

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, compact separators — hash-stable."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SimJob":
        kwargs = {k: v for k, v in data.items() if k in _FIELD_NAMES}
        unknown = set(data) - set(_FIELD_NAMES)
        if unknown:
            raise ConfigurationError(f"unknown SimJob fields: {sorted(unknown)}")
        if kwargs.get("topology") is not None:
            kwargs["topology"] = tuple(kwargs["topology"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, payload: str) -> "SimJob":
        return cls.from_dict(json.loads(payload))

    def spec_hash(self, version: Optional[str] = None) -> str:
        """Stable content hash of this spec, salted with the package version.

        Any released change to the simulator bumps ``repro.__version__`` and
        thereby invalidates every cached result.
        """
        if version is None:
            import repro

            version = repro.__version__
        digest = hashlib.sha256(f"{version}:{self.to_json()}".encode("utf-8"))
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def build_system(self) -> SystemConfig:
        """The :class:`SystemConfig` this job simulates (preset + overrides)."""
        system = make_system(self.system)
        changes: Dict[str, object] = {}
        for key, value in self.overrides.items():
            if key in _CONFIG_SECTIONS:
                try:
                    changes[key] = replace(getattr(system, key), **value)
                except TypeError as exc:
                    raise ConfigurationError(
                        f"invalid override for section {key!r}: {exc}"
                    ) from None
            else:
                changes[key] = value
        # The ACE preset couples policy.comm_memory_bandwidth_gbps to the
        # engine's DMA slice (see presets.ace_system).  Preserve that coupling
        # when only the ace section is overridden, so
        # ``overrides={"ace": {"memory_bandwidth_gbps": ...}}`` behaves like
        # ``make_system("ace", ace=AceConfig(memory_bandwidth_gbps=...))``.
        if (
            "ace" in changes
            and system.endpoint.value == "ace"
            and "comm_memory_bandwidth_gbps" not in self.overrides.get("policy", {})
        ):
            policy = changes.get("policy", system.policy)
            changes["policy"] = replace(
                policy,
                comm_memory_bandwidth_gbps=changes["ace"].memory_bandwidth_gbps,
            )
        for knob, config_field in _JOB_KNOBS:
            value = getattr(self, knob)
            if value is not None and value != getattr(system, config_field):
                changes[config_field] = value
        return system.with_overrides(**changes) if changes else system

    def build_topology(self) -> Topology:
        """The fabric this job runs on.

        Precedence: the ``fabric`` spec string, then the explicit ``(L, V, H)``
        torus shape, then the paper's canonical shape for ``num_npus``.
        """
        if self.fabric is not None:
            return topology_from_spec(self.fabric)
        if self.topology is not None:
            return torus_from_shape(self.topology)
        return torus_from_shape(torus_shape_for_npus(self.num_npus))

    def execute(self) -> object:
        """Run the simulation this spec describes and return its result.

        Returns a :class:`~repro.training.results.TrainingResult` for training
        jobs, a :class:`~repro.analysis.bandwidth.NetworkDriveResult` for
        network-drive jobs, and the Table IV row list for area/power jobs.
        """
        if self.kind == "training":
            system = self.build_system()
            topology = self.build_topology()
            if self.trace is not None:
                # Resolved here (in the worker), not at submission: building
                # many specs must stay filesystem-free.  Measured ops invert
                # the same backend the engine will price kernels with, so
                # replay stays exact whichever backend is active.
                from repro.traces import find_trace, lower_trace

                workload = lower_trace(
                    find_trace(self.trace),
                    self.cost_table,
                    compute_backend=resolve_compute_backend_name(
                        system.compute_backend, num_npus=topology.num_nodes
                    ),
                )
            else:
                workload = build_workload(self.workload)
            return simulate_training(
                system,
                workload,
                num_npus=topology,
                iterations=self.iterations,
                chunk_bytes=self.chunk_bytes,
                overlap_embedding=self.overlap_embedding,
            )
        if self.kind == "network_drive":
            return measure_network_drive(
                self.build_system(),
                self.build_topology(),
                self.payload_bytes,
                op=CollectiveOp(self.op),
                chunk_bytes=self.chunk_bytes,
            )
        # area_power: Table IV roll-up plus the overhead-vs-accelerator row.
        ace_fields = self.overrides.get("ace", {})
        model = AceAreaPowerModel(replace(AceConfig(), **ace_fields))
        rows = model.as_table()
        rows.append(
            {
                "component": "Overhead vs training accelerator",
                "area_um2": 100.0 * model.area_overhead_fraction(),
                "power_mw": 100.0 * model.power_overhead_fraction(),
            }
        )
        return rows


# A frozen dataclass with a dict field cannot use the generated __hash__;
# hash the canonical JSON instead so equal specs always collide.
def _simjob_hash(self: SimJob) -> int:
    return hash(self.to_json())


SimJob.__hash__ = _simjob_hash  # type: ignore[method-assign]

_FIELD_NAMES = tuple(f.name for f in fields(SimJob))


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------


def training_job(system: str, workload: str, **knobs) -> SimJob:
    """A training-loop simulation job (Figs. 9b-12); ``knobs`` are SimJob fields."""
    return SimJob(kind="training", system=system, workload=workload, **knobs)


def trace_job(system: str, trace: str, **knobs) -> SimJob:
    """A training job driven by an operator-graph trace file.

    ``trace`` names a ``traces/<name>.json`` operator graph; ``knobs`` are
    SimJob fields, e.g. ``cost_table`` picks the device table pricing its op
    descriptors (default: :data:`repro.traces.cost.DEFAULT_COST_TABLE`).
    """
    return SimJob(kind="training", system=system, trace=trace, **knobs)


def network_drive_job(
    system: str,
    payload_bytes: int,
    op: CollectiveOp = CollectiveOp.ALL_REDUCE,
    **knobs,
) -> SimJob:
    """A single-collective network-drive job (Figs. 4-6, 9a, cross-topology)."""
    return SimJob(
        kind="network_drive",
        system=system,
        payload_bytes=payload_bytes,
        op=op.value if isinstance(op, CollectiveOp) else op,
        **knobs,
    )


def area_power_job(config: Optional[AceConfig] = None) -> SimJob:
    """A Table IV area/power roll-up job for an ACE configuration."""
    overrides = {"ace": asdict(config)} if config is not None else {}
    return SimJob(kind="area_power", overrides=overrides)
