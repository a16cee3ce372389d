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
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.analysis.bandwidth import measure_network_drive
from repro.collectives.base import CollectiveOp
from repro.collectives.planner import AUTO, algorithms
from repro.compute.npu import COMPUTE_BACKENDS
from repro.config.fields import POSITIVE, check
from repro.config.presets import SYSTEM_CONFIG_NAMES, make_system, torus_shape_for_npus
from repro.config.system import AceConfig, ResourcePolicy, SystemConfig
from repro.core.area_power import AceAreaPowerModel
from repro.errors import ConfigurationError, TopologyError
from repro.network import NETWORK_BACKENDS
from repro.network.topology import Topology, topology_from_spec, torus_from_shape
from repro.training.loop import simulate_training
from repro.workloads.registry import available_workloads, build_workload

JOB_KINDS = ("training", "network_drive", "area_power")

#: Override sections that map onto the nested :class:`SystemConfig` dataclasses.
_CONFIG_SECTIONS = ("compute", "memory", "network", "ace", "policy")
#: Top-level scalar SystemConfig fields that may be overridden directly.
_CONFIG_SCALARS = ("collective_scheduling", "collective_launch_overhead_ns")
_OVERRIDE_KEYS = frozenset(_CONFIG_SECTIONS + _CONFIG_SCALARS)
#: (SimJob field, SystemConfig field) of each model knob a sweep cell pins.
_JOB_KNOBS = (
    ("algorithm", "collective_algorithm"),
    ("backend", "network_backend"),
    ("compute", "compute_backend"),
    ("parallelism", "parallelism"),
)
#: (SimJob field, what its value names, the names it accepts) of each knob
#: that picks a model from a fixed table.
_MODEL_NAMES = (
    ("system", "system configuration", SYSTEM_CONFIG_NAMES),
    ("workload", "workload", tuple(available_workloads())),
    ("algorithm", "collective algorithm", (AUTO,) + algorithms()),
    ("backend", "network backend", NETWORK_BACKENDS),
    ("compute", "compute backend", COMPUTE_BACKENDS),
)


@dataclass(frozen=True)
class SimJob:
    """One simulation request, fully described by value.

    The spec is deliberately built from plain JSON types (strings, numbers,
    bools, dicts, and an ``(L, V, H)`` tuple) so that the canonical JSON form
    — and hence :meth:`spec_hash` — is stable across processes and sessions.
    A field the job's kind never reads must keep its default, so that one
    simulation has one spec hash.
    """

    kind: str = "training"
    #: Table VI system, one of :data:`repro.config.presets.SYSTEM_CONFIG_NAMES`.
    system: str = "ace"
    #: Per-section field overrides applied on top of the preset, e.g.
    #: ``{"ace": {"sram_bytes": 2097152}}``; ``policy`` applies to baselines only.
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
    #: "hybrid"); ``None`` keeps the preset's symmetric model.
    backend: Optional[str] = None
    chunk_bytes: Optional[int] = field(default=None, metadata=POSITIVE)
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
    iterations: int = field(default=2, metadata=POSITIVE)
    overlap_embedding: bool = False
    #: Parallelisation strategy spec ("data" | "model" | "hybrid" | "zero" |
    #: "pipeline" | "pipeline:<stages>x<microbatches>"); ``None`` keeps the
    #: workload's native strategy.
    parallelism: Optional[str] = None
    #: Compute backend pricing training kernels ("roofline" |
    #: "execution-unit"); ``None`` keeps the preset's roofline model.
    compute: Optional[str] = None
    # -- network-drive jobs ----------------------------------------------
    payload_bytes: Optional[int] = field(default=None, metadata=POSITIVE)
    op: str = CollectiveOp.ALL_REDUCE.value

    def __post_init__(self) -> None:
        # Every field is plain JSON, so the spec itself is a JSON boundary.
        check(SimJob, vars(self))
        unknown = sorted(set(self.overrides) - _OVERRIDE_KEYS, key=str)
        if unknown:
            raise ConfigurationError(
                f"unknown override section {unknown[0]!r}; expected one of "
                f"{sorted(_OVERRIDE_KEYS)}",
                field=f"overrides.{unknown[0]}",
            )
        check(SystemConfig, self.overrides, path=("overrides",))
        # A private copy: later edits to the caller's dicts cannot change the spec.
        object.__setattr__(
            self,
            "overrides",
            {k: dict(v) if isinstance(v, Mapping) else v for k, v in self.overrides.items()},
        )
        if self.topology is not None:
            object.__setattr__(self, "topology", tuple(self.topology))
        if self.kind not in JOB_KINDS:
            raise ConfigurationError(
                f"unknown job kind {self.kind!r}; expected one of {JOB_KINDS}"
            )
        self._check_unread_fields()
        for knob, what, names in _MODEL_NAMES:
            value = getattr(self, knob)
            if value is not None and value not in names:
                raise ConfigurationError(
                    f"unknown {what} {value!r}; expected one of {list(names)}",
                    field=knob,
                )
        if self.fabric is not None:
            # Validate eagerly so a bad spec fails at submission, not in a worker.
            try:
                topology_from_spec(self.fabric)
            except TopologyError as exc:
                raise TopologyError(f"fabric: {exc}", field="fabric") from None
        if self.kind in ("training", "network_drive"):
            if self.fabric is None and self.topology is None:
                if self.num_npus is None:
                    raise ConfigurationError(
                        f"{self.kind} jobs need a fabric spec, an explicit topology, "
                        f"or num_npus"
                    )
                # Sizes without a canonical torus fail here, not in a worker.
                torus_shape_for_npus(self.num_npus)
        if self.cost_table is not None:
            if self.trace is None:
                raise ConfigurationError(
                    "cost_table only applies to trace-driven training jobs; "
                    "set a trace name"
                )
            # Table lookup only — no filesystem IO at submission time; the
            # trace file itself is resolved in the worker at execute().
            from repro.traces.cost import find_cost_table

            find_cost_table(self.cost_table)
        if self.kind == "training":
            if bool(self.workload) == bool(self.trace):
                raise ConfigurationError(
                    "training jobs need exactly one of a workload name or a "
                    "trace name"
                )
        if self.kind == "network_drive":
            if self.payload_bytes is None:
                raise ConfigurationError("network_drive jobs need a positive payload_bytes")
            try:
                CollectiveOp(self.op)
            except ValueError:
                raise ConfigurationError(
                    f"unknown collective op {self.op!r}; expected one of "
                    f"{[o.value for o in CollectiveOp]}",
                    field="op",
                ) from None
        # Override fields, their values and the cross-field rules (and a
        # parallelism spec) fail here, at submission, rather than in a worker.
        self.build_system()
        if "policy" in self.overrides and make_system(self.system).policy == ResourcePolicy():
            # Even an empty or all-zero section would only change the spec
            # hash, and so the cache key, of an identical simulation.
            raise ConfigurationError(
                f"only a baseline reserves NPU resources for communication: "
                f"{self.system!r} carries the empty policy, so a 'policy' "
                f"override section changes nothing",
                field="overrides.policy",
            )

    def _check_unread_fields(self) -> None:
        """Reject a non-default value in a field this job's kind never reads.

        Such a value would only change the spec hash, and so the cache key,
        of an identical simulation.
        """
        for name in _FIELD_NAMES:
            readers = _READ_BY[name]
            if self.kind not in readers and getattr(self, name) != _DEFAULTS[name]:
                raise ConfigurationError(
                    f"{name} only applies to {' and '.join(readers)} jobs, not {self.kind!r}",
                    field=name,
                )
        if self.kind == "area_power":
            for key in self.overrides:
                if key != "ace":
                    raise ConfigurationError(
                        f"area_power jobs read only the 'ace' override section, not {key!r}",
                        field=f"overrides.{key}",
                    )

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
        unknown = sorted(str(key) for key in data if key not in _FIELD_NAMES)
        if unknown:
            raise ConfigurationError(f"unknown SimJob fields: {unknown}", field=unknown[0])
        return cls(**data)

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
                changes[key] = replace(getattr(system, key), **value)
            else:
                changes[key] = value
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
                    compute_backend=system.compute_backend,
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
_DEFAULTS = {
    f.name: f.default_factory() if f.default is MISSING else f.default for f in fields(SimJob)
}
#: The job kinds whose :meth:`SimJob.execute` reads each field.  An
#: ``area_power`` job reads only the ``ace`` override section.
_READ_BY = dict.fromkeys(_FIELD_NAMES, ("training", "network_drive"))
_READ_BY.update(
    kind=JOB_KINDS,
    overrides=JOB_KINDS,
    workload=("training",),
    trace=("training",),
    cost_table=("training",),
    iterations=("training",),
    overlap_embedding=("training",),
    parallelism=("training",),
    compute=("training",),
    payload_bytes=("network_drive",),
    op=("network_drive",),
)


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
