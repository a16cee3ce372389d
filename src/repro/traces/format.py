"""Versioned operator-graph trace format: datatypes, validation, discovery.

A *trace* is a data-only description of one training iteration as a DAG of
operators — the trace-driven front end the ROADMAP names, modelled on
byteprofile-analysis-style DAG replay.  Traces live as one ``<name>.json``
file per trace, by default under ``traces/`` at the repository root
(override with ``REPRO_TRACES_DIR``), and are lowered onto the existing
training loop by :mod:`repro.traces.schedule`.

A trace file looks like::

    {
      "schema": 1,
      "name": "moe-transformer",
      "description": "...",
      "batch_size_per_npu": 4,
      "parallelism": "data",
      "nodes": [
        {"id": "l0.fwd", "kind": "compute", "phase": "forward", "layer": "l0",
         "op": {"kind": "tensor", "flops": 1.0e9, "bytes_read": 4.0e6,
                "bytes_written": 2.0e6, "efficiency": 0.85}},
        {"id": "l0.wgrad-ar", "kind": "comm", "role": "weight_grad",
         "layer": "l0", "collective": "all_reduce", "bytes": 8388608}
      ],
      "edges": [["l0.fwd", "l0.wgrad-ar"]]
    }

Compute nodes carry an *op descriptor* (see :data:`OP_KINDS`): ``tensor``
gives architectural FLOP/byte counts, ``gemm`` gives a matrix-multiply shape,
and ``measured`` gives a wall-clock duration captured on a real device — the
per-device cost tables of :mod:`repro.traces.cost` turn any of them into a
:class:`~repro.compute.kernels.KernelCost`.  Comm nodes carry a collective
type, a payload size, and a *role* describing where the collective attaches
in the training loop (see :data:`COMM_ROLES`).

Validation is strict in the :class:`~repro.errors.ScenarioError` style:
unknown fields, unknown op kinds, dangling edges, duplicate ids, negative
byte counts and dependency cycles all raise a
:class:`~repro.errors.TraceError` naming the trace and the offending node.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Tuple, Union

from repro.collectives.base import CollectiveOp
from repro.config.fields import FRACTION, NON_NEGATIVE, POSITIVE, REQUIRED, check, check_object
from repro.errors import TraceError
from repro.workloads.base import PARALLELISM_STRATEGIES

#: Trace file schema version understood by this package.
TRACE_SCHEMA_VERSION = 1

#: Environment variable overriding the default trace directory.
TRACE_DIR_ENV = "REPRO_TRACES_DIR"

#: Compute phases of one training iteration a compute node may belong to.
COMPUTE_PHASES = (
    "forward",
    "input_grad",
    "weight_grad",
    "embedding_lookup",
    "embedding_update",
)

#: Where a comm node's collective attaches in the training loop.
COMM_ROLES = (
    "weight_grad",
    "forward_activation",
    "backward_activation",
    "embedding_forward",
    "embedding_backward",
)

#: Comm roles that belong to a specific layer (vs. the embedding stage).
LAYER_COMM_ROLES = ("weight_grad", "forward_activation", "backward_activation")

_NAME_PATTERN = re.compile(r"^[a-z0-9][a-z0-9-]*$")


@dataclass(frozen=True)
class _TensorOp:
    name: str
    flops: float = field(default=0.0, metadata=NON_NEGATIVE)
    bytes_read: float = field(default=0.0, metadata=NON_NEGATIVE)
    bytes_written: float = field(default=0.0, metadata=NON_NEGATIVE)
    efficiency: float = field(default=0.5, metadata=FRACTION)


@dataclass(frozen=True)
class _GemmOp:
    name: str
    m: int = field(metadata={**REQUIRED, **POSITIVE})
    n: int = field(metadata={**REQUIRED, **POSITIVE})
    k: int = field(metadata={**REQUIRED, **POSITIVE})
    batch: int = field(default=1, metadata=POSITIVE)
    dtype_bytes: int = field(default=2, metadata=POSITIVE)
    efficiency: float = field(default=0.85, metadata=FRACTION)
    traffic_factor: float = field(default=1.0, metadata=POSITIVE)


@dataclass(frozen=True)
class _MeasuredOp:
    name: str
    duration_ns: float = field(metadata={**REQUIRED, **POSITIVE})


#: One field table per op kind (see :mod:`repro.config.fields`); an op field's
#: default is what :func:`validate_op` fills in when it is absent.
_OP_TABLES = {"tensor": _TensorOp, "gemm": _GemmOp, "measured": _MeasuredOp}
#: Op descriptor kinds a compute node may carry.
OP_KINDS = tuple(_OP_TABLES)


def _op_fields(table: type) -> Tuple[Tuple[str, object, bool], ...]:
    """Each field's name, default, and whether :func:`validate_op` makes it a float."""
    hints = typing.get_type_hints(table)
    return tuple(
        (spec.name, spec.default, hints[spec.name] is float) for spec in dataclasses.fields(table)
    )


_OP_FIELDS = {kind: _op_fields(table) for kind, table in _OP_TABLES.items()}


@dataclass(frozen=True)
class _ComputeNode:
    id: str
    kind: str
    phase: str
    layer: str
    op: Mapping[str, object] = field(metadata=REQUIRED)


@dataclass(frozen=True)
class _CommNode:
    id: str
    kind: str
    role: str
    layer: str
    collective: str
    bytes: int = field(metadata={**REQUIRED, **POSITIVE})


def validate_op(op: object, context: str) -> Dict[str, object]:
    """Validate one compute-op descriptor; returns a normalised plain dict.

    The descriptor is left as data (not resolved to a
    :class:`~repro.compute.kernels.KernelCost`) so the same trace can be
    costed against any device table at lowering time.
    """
    kind = check_object(op, context, TraceError).get("kind")
    if kind not in OP_KINDS:
        raise TraceError(f"{context}: unknown op kind {kind!r}; expected one of {list(OP_KINDS)}")
    values = {key: value for key, value in op.items() if key != "kind"}
    check(_OP_TABLES[kind], values, context, TraceError)
    normalized: Dict[str, object] = {"kind": kind}
    for name, default, is_float in _OP_FIELDS[kind]:
        value = values.get(name, default)
        if value is not dataclasses.MISSING:
            normalized[name] = float(value) if is_float else value
    return normalized


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceNode:
    """One validated operator-graph node (compute or comm)."""

    id: str
    kind: str
    #: Layer tag grouping this node with its siblings; empty for the
    #: embedding-stage phases/roles, which are workload-global.
    layer: str = ""
    # -- compute nodes ---------------------------------------------------
    phase: str = ""
    op: Mapping[str, object] = field(default_factory=dict)
    # -- comm nodes ------------------------------------------------------
    role: str = ""
    collective: str = ""
    bytes: int = 0

    @property
    def is_compute(self) -> bool:
        """True for compute nodes (vs. collective-communication nodes)."""
        return self.kind == "compute"

    @classmethod
    def from_dict(cls, data: object, context: str) -> "TraceNode":
        """Validate one manifest node entry."""
        node_id = check_object(data, context, TraceError).get("id")
        if not node_id or not isinstance(node_id, str):
            raise TraceError(f"{context}: every node needs a non-empty string 'id'")
        context = f"{context} node {node_id!r}"
        kind = data.get("kind")
        if kind not in ("compute", "comm"):
            raise TraceError(
                f"{context}: unknown node kind {kind!r}; expected 'compute' or 'comm'"
            )
        check(_ComputeNode if kind == "compute" else _CommNode, data, context, TraceError)
        layer = data.get("layer", "")
        if kind == "compute":
            phase = data.get("phase", "")
            if phase not in COMPUTE_PHASES:
                raise TraceError(
                    f"{context}: unknown compute phase {phase!r}; "
                    f"expected one of {list(COMPUTE_PHASES)}"
                )
            if phase.startswith("embedding"):
                if layer:
                    raise TraceError(
                        f"{context}: embedding phase {phase!r} is workload-global; "
                        f"drop the 'layer' field"
                    )
            elif not layer:
                raise TraceError(f"{context}: compute phase {phase!r} needs a 'layer' tag")
            op = validate_op(data["op"], f"{context} op")
            return cls(id=node_id, kind=kind, layer=layer, phase=phase, op=op)
        role = data.get("role", "")
        if role not in COMM_ROLES:
            raise TraceError(
                f"{context}: unknown comm role {role!r}; expected one of {list(COMM_ROLES)}"
            )
        if role in LAYER_COMM_ROLES:
            if not layer:
                raise TraceError(f"{context}: comm role {role!r} needs a 'layer' tag")
        elif layer:
            raise TraceError(
                f"{context}: embedding role {role!r} is workload-global; drop the 'layer' field"
            )
        collective = data.get("collective", "")
        try:
            CollectiveOp(collective)
        except ValueError:
            raise TraceError(
                f"{context}: unknown collective {collective!r}; expected one of "
                f"{[op.value for op in CollectiveOp]}"
            ) from None
        return cls(
            id=node_id,
            kind=kind,
            layer=layer,
            role=role,
            collective=collective,
            bytes=data["bytes"],
        )

    def to_dict(self) -> Dict[str, object]:
        """The trace-file form of this node."""
        if self.is_compute:
            data: Dict[str, object] = {"id": self.id, "kind": self.kind, "phase": self.phase}
            if self.layer:
                data["layer"] = self.layer
            data["op"] = dict(self.op)
            return data
        data = {"id": self.id, "kind": self.kind, "role": self.role}
        if self.layer:
            data["layer"] = self.layer
        data["collective"] = self.collective
        data["bytes"] = self.bytes
        return data


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trace:
    """A fully validated operator-graph trace (guaranteed acyclic)."""

    name: str
    description: str
    batch_size_per_npu: int = field(metadata={**REQUIRED, **POSITIVE})
    nodes: Tuple[TraceNode, ...]
    edges: Tuple[Tuple[str, str], ...]
    parallelism: str = "data"
    dtype_bytes: int = field(default=2, metadata=POSITIVE)
    compute_time_scale: float = field(default=1.0, metadata=POSITIVE)
    pipeline_activation_bytes: int = field(default=0, metadata=NON_NEGATIVE)

    @classmethod
    def from_dict(cls, data: object, source: str = "trace") -> "Trace":
        """Validate a parsed trace; ``source`` names it in error messages."""
        if "schema" not in check_object(data, source, TraceError):
            raise TraceError(f"{source}: required field 'schema' is missing")
        if data["schema"] != TRACE_SCHEMA_VERSION:
            raise TraceError(
                f"{source}: unsupported trace schema version {data['schema']!r}; this "
                f"build understands version {TRACE_SCHEMA_VERSION}"
            )
        values = {key: value for key, value in data.items() if key != "schema"}
        check(cls, values, source, TraceError)
        name = values.get("name", "")
        if not _NAME_PATTERN.match(name):
            raise TraceError(
                f"{source}: trace name {name!r} must be a lowercase slug "
                f"matching {_NAME_PATTERN.pattern!r}"
            )
        context = f"trace {name!r}"
        if not values.get("description"):
            raise TraceError(f"{context}: a non-empty 'description' is required")
        parallelism = values.get("parallelism", "data")
        if parallelism not in PARALLELISM_STRATEGIES:
            raise TraceError(
                f"{context}: unknown parallelism {parallelism!r}; expected one of "
                f"{list(PARALLELISM_STRATEGIES)}"
            )
        if not values.get("nodes"):
            raise TraceError(f"{context}: 'nodes' must be a non-empty list")
        nodes = tuple(
            TraceNode.from_dict(entry, f"{context} node #{index}")
            for index, entry in enumerate(values["nodes"])
        )
        seen: Dict[str, int] = {}
        for node in nodes:
            if node.id in seen:
                raise TraceError(f"{context}: duplicate node id {node.id!r}")
            seen[node.id] = 1

        edges: List[Tuple[str, str]] = []
        edge_set: Dict[Tuple[str, str], int] = {}
        for index, (src, dst) in enumerate(values.get("edges", ())):
            for end in (src, dst):
                if end not in seen:
                    raise TraceError(
                        f"{context}: edge #{index} references unknown node {end!r} "
                        f"(dangling edge)"
                    )
            if src == dst:
                raise TraceError(f"{context}: node {src!r} depends on itself (self-edge)")
            if (src, dst) in edge_set:
                raise TraceError(f"{context}: duplicate edge {[src, dst]!r}")
            edge_set[(src, dst)] = 1
            edges.append((src, dst))

        trace = cls(
            name=name,
            description=values["description"],
            batch_size_per_npu=values["batch_size_per_npu"],
            nodes=nodes,
            edges=tuple(edges),
            parallelism=parallelism,
            dtype_bytes=values.get("dtype_bytes", 2),
            compute_time_scale=float(values.get("compute_time_scale", 1.0)),
            pipeline_activation_bytes=values.get("pipeline_activation_bytes", 0),
        )
        topological_order(trace)  # raises TraceError on a dependency cycle
        return trace
    def to_dict(self) -> Dict[str, object]:
        """The trace-file (plain-JSON) form of this trace — round-trips."""
        data: Dict[str, object] = {
            "schema": TRACE_SCHEMA_VERSION,
            "name": self.name,
            "description": self.description,
            "batch_size_per_npu": self.batch_size_per_npu,
        }
        if self.parallelism != "data":
            data["parallelism"] = self.parallelism
        if self.dtype_bytes != 2:
            data["dtype_bytes"] = self.dtype_bytes
        if self.compute_time_scale != 1.0:
            data["compute_time_scale"] = self.compute_time_scale
        if self.pipeline_activation_bytes:
            data["pipeline_activation_bytes"] = self.pipeline_activation_bytes
        data["nodes"] = [node.to_dict() for node in self.nodes]
        data["edges"] = [list(edge) for edge in self.edges]
        return data

    def node(self, node_id: str) -> TraceNode:
        """Look a node up by id (the ids are unique by construction)."""
        for node in self.nodes:
            if node.id == node_id:
                return node
        raise TraceError(f"trace {self.name!r}: no node with id {node_id!r}")

    def summary(self) -> Dict[str, object]:
        """Human-oriented size summary (``repro trace list``)."""
        compute = sum(1 for node in self.nodes if node.is_compute)
        return {
            "name": self.name,
            "nodes": len(self.nodes),
            "compute_nodes": compute,
            "comm_nodes": len(self.nodes) - compute,
            "edges": len(self.edges),
            "parallelism": self.parallelism,
            "description": self.description,
        }


def topological_order(trace: Trace) -> List[TraceNode]:
    """Deterministic topological order of ``trace``'s nodes (Kahn's algorithm).

    Ready nodes are processed in sorted-id order, so the result depends only
    on the edge set — never on the order nodes appear in the file.  Raises
    :class:`~repro.errors.TraceError` naming a node on every dependency
    cycle, which is how :meth:`Trace.from_dict` guarantees acyclicity.
    """
    indegree: Dict[str, int] = {node.id: 0 for node in trace.nodes}
    successors: Dict[str, List[str]] = {node.id: [] for node in trace.nodes}
    for src, dst in trace.edges:
        indegree[dst] += 1
        successors[src].append(dst)
    ready = sorted(node_id for node_id, degree in indegree.items() if degree == 0)
    order: List[str] = []
    while ready:
        node_id = ready.pop(0)
        order.append(node_id)
        released = []
        for succ in successors[node_id]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                released.append(succ)
        if released:
            ready = sorted(ready + released)
    if len(order) < len(trace.nodes):
        stuck = sorted(node_id for node_id, degree in indegree.items() if degree > 0)
        raise TraceError(
            f"trace {trace.name!r}: dependency cycle through node {stuck[0]!r} "
            f"({len(stuck)} node(s) unreachable)"
        )
    by_id = {node.id: node for node in trace.nodes}
    return [by_id[node_id] for node_id in order]


# ---------------------------------------------------------------------------
# Discovery
# ---------------------------------------------------------------------------


def default_trace_dir() -> Path:
    """The trace directory: ``$REPRO_TRACES_DIR``, ``./traces``, or the
    ``traces/`` directory next to this source checkout."""
    env = os.environ.get(TRACE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    cwd = Path.cwd() / "traces"
    if cwd.is_dir():
        return cwd
    checkout = Path(__file__).resolve().parents[3] / "traces"
    return checkout if checkout.is_dir() else cwd


def load_trace_file(path: Union[str, Path]) -> Trace:
    """Parse and validate one trace file.

    The trace's ``name`` must match the file stem, so that
    ``traces/<name>.json`` is always the trace named ``<name>``.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise TraceError(f"cannot read trace file {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceError(f"{path}: not valid JSON ({exc})") from None
    trace = Trace.from_dict(data, source=str(path))
    if trace.name != path.stem:
        raise TraceError(
            f"{path}: trace name {trace.name!r} must match the file "
            f"stem {path.stem!r} (rename the file or the trace)"
        )
    return trace


def discover_traces(directory: Union[str, Path, None] = None) -> List[Trace]:
    """Load every ``*.json`` trace in ``directory``, sorted by name."""
    directory = Path(directory) if directory is not None else default_trace_dir()
    if not directory.is_dir():
        raise TraceError(
            f"trace directory {directory} does not exist "
            f"(set {TRACE_DIR_ENV} or pass --dir)"
        )
    return [load_trace_file(path) for path in sorted(directory.glob("*.json"))]


def find_trace(name: str, directory: Union[str, Path, None] = None) -> Trace:
    """Load the trace called ``name``, with a helpful error if absent."""
    directory = Path(directory) if directory is not None else default_trace_dir()
    path = directory / f"{name}.json"
    if not path.is_file():
        available = sorted(p.stem for p in directory.glob("*.json")) if directory.is_dir() else []
        raise TraceError(f"no trace named {name!r} in {directory}; available: {available}")
    return load_trace_file(path)
