"""The JSON boundary checker: a bad value is a ConfigurationError naming its field.

Jobs, manifests and traces enter as JSON and are checked against the field
tables of their own types (:mod:`repro.config.fields`).
"""

import json
import math
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as repro_main
from repro.config.system import SystemConfig
from repro.errors import ConfigurationError, ScenarioError, TraceError
from repro.runner import SimJob
from repro.scenarios import compile_scenario, load_scenario_file
from repro.traces import Trace

REPO_ROOT = Path(__file__).resolve().parents[1]
BASE_JOB = {"workload": "resnet50", "num_npus": 16}
NAN = float("nan")

SECTIONS = ("compute", "memory", "network", "ace", "policy")
SCALAR_OVERRIDES = ("collective_scheduling", "collective_launch_overhead_ns")


def _accepts(hint, value) -> bool:
    """The type rules, written apart from the checker as its reference."""
    if hint is bool:
        return isinstance(value, bool)
    if hint is int:
        return type(value) is int
    if hint is float:
        return type(value) is int or (type(value) is float and math.isfinite(value))
    if hint is str:
        return isinstance(value, str)
    if get_origin(hint) is Union:  # Optional[X]
        return value is None or _accepts(get_args(hint)[0], value)
    if get_origin(hint) is tuple:
        args = get_args(hint)
        return (
            isinstance(value, list)
            and len(value) == len(args)
            and all(map(_accepts, args, value))
        )
    return isinstance(value, dict)  # Mapping[str, object]


def _field_paths():
    """(path, annotation, bound) of every SimJob field and override field."""
    paths = []
    job_hints = get_type_hints(SimJob)
    for spec in dataclass_fields(SimJob):
        paths.append(((spec.name,), job_hints[spec.name], spec.metadata.get("bound")))
    system_hints = get_type_hints(SystemConfig)
    for section in SECTIONS:
        hints = get_type_hints(system_hints[section])
        for spec in dataclass_fields(system_hints[section]):
            path = ("overrides", section, spec.name)
            paths.append((path, hints[spec.name], spec.metadata.get("bound")))
    for spec in dataclass_fields(SystemConfig):
        if spec.name in SCALAR_OVERRIDES:
            path = ("overrides", spec.name)
            paths.append((path, system_hints[spec.name], spec.metadata.get("bound")))
    return paths


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=5,
)


@settings(max_examples=300, deadline=None)
@given(target=st.sampled_from(_field_paths()), value=JSON_VALUES)
def test_any_json_value_in_any_field_builds_or_names_the_field(target, value):
    path, hint, bound = target
    spec = dict(BASE_JOB)
    section = spec
    for name in path[:-1]:
        section = section.setdefault(name, {})
    section[path[-1]] = value
    fits = _accepts(hint, value) and (bound is None or value is None or bound[1](value))
    try:
        SimJob.from_dict(spec)
    except ConfigurationError as exc:
        # A fitting value may still break a cross-field rule.
        assert fits or exc.field == ".".join(path), (exc.field, str(exc))
        return
    assert fits, f"{'.'.join(path)}={value!r} was accepted"


# ---------------------------------------------------------------------------
# The probes: one per boundary shape, each named by its dotted field
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"overrides": {"ace": {"num_fsms": 2.5}}}, "overrides.ace.num_fsms"),
        ({"overrides": {"ace": {"sram_bytes": "big"}}}, "overrides.ace.sram_bytes"),
        (
            {"overrides": {"memory": {"npu_memory_bandwidth_gbps": NAN}}},
            "overrides.memory.npu_memory_bandwidth_gbps",
        ),
        ({"overrides": {"compute": {"num_sms": True}}}, "overrides.compute.num_sms"),
        ({"overrides": {"policy": {"comm_sms": 2.5}}}, "overrides.policy.comm_sms"),
        ({"overrides": {"network": {"link_efficiency": 2.0}}}, "overrides.network.link_efficiency"),
        ({"overrides": {"ace": {"packet_bytes": 256}}}, "overrides.ace.packet_bytes"),
        ({"iterations": "2"}, "iterations"),
        ({"iterations": 1.5}, "iterations"),
        ({"chunk_bytes": 1.5}, "chunk_bytes"),
        ({"topology": [4, 2]}, "topology"),
        # Cross-field rules name the field within the system config.
        (
            {"system": "baseline_comm_opt", "overrides": {"policy": {"comm_sms": 90}}},
            "policy.comm_sms",
        ),
        (
            {
                "system": "baseline_comm_opt",
                "overrides": {"policy": {"comm_memory_bandwidth_gbps": 950.0}},
            },
            "policy.comm_memory_bandwidth_gbps",
        ),
        # The ACE endpoint books its HBM slice at this bandwidth.
        ({"overrides": {"ace": {"memory_bandwidth_gbps": 950.0}}}, "ace.memory_bandwidth_gbps"),
        # Model names are checked against their tables; no size heuristic
        # ("auto" backend, or its threshold) picks a model any more.
        ({"backend": "auto"}, "backend"),
        ({"compute": "auto"}, "compute"),
        ({"algorithm": "bruck"}, "algorithm"),
        (
            {"overrides": {"network_backend_auto_threshold": 8}},
            "overrides.network_backend_auto_threshold",
        ),
        # Only a baseline carries a policy, and it reserves at least one SM
        # and some HBM bandwidth.
        ({"overrides": {"policy": {"comm_sms": 4}}}, "policy.comm_sms"),
        (
            {"system": "ideal", "overrides": {"policy": {"comm_memory_bandwidth_gbps": 300.0}}},
            "policy.comm_memory_bandwidth_gbps",
        ),
        (
            {"system": "baseline_comm_opt", "overrides": {"policy": {"comm_sms": 0}}},
            "policy.comm_sms",
        ),
        (
            {
                "system": "baseline_comm_opt",
                "overrides": {"policy": {"comm_memory_bandwidth_gbps": 0.0}},
            },
            "policy.comm_memory_bandwidth_gbps",
        ),
        (
            {"overrides": {"policy": {"comm_uses_npu_sms": True}}},
            "overrides.policy.comm_uses_npu_sms",
        ),
        ({"overrides": {"name": "x"}}, "overrides.name"),
        # System and workload names have one spelling each.
        ({"system": "ACE"}, "system"),
        ({"system": "turbo"}, "system"),
        ({"workload": "ResNet-50"}, "workload"),
        ({"workload": "resnet5O"}, "workload"),
        # On ACE and Ideal even an empty or all-zero policy section is
        # rejected: it would only change the spec hash.
        ({"overrides": {"policy": {}}}, "overrides.policy"),
        (
            {
                "system": "ideal",
                "overrides": {"policy": {"comm_sms": 0, "comm_memory_bandwidth_gbps": 0.0}},
            },
            "overrides.policy",
        ),
        # A fabric has one spelling, and a drive names its bad collective.
        ({"fabric": "mesh:4x4"}, "fabric"),
        ({"fabric": "fully_connected:16"}, "fabric"),
        ({"fabric": "FC:16"}, "fabric"),
        (
            {"kind": "network_drive", "workload": None, "payload_bytes": 1024, "op": "broadcast"},
            "op",
        ),
        # A field its kind never reads keeps its default: another value would
        # only give an identical simulation a new spec hash.
        ({"op": "all_to_all"}, "op"),
        ({"payload_bytes": 3}, "payload_bytes"),
        ({"kind": "network_drive", "payload_bytes": 1024}, "workload"),
        (
            {"kind": "network_drive", "workload": None, "payload_bytes": 1024, "iterations": 7},
            "iterations",
        ),
        (
            {
                "kind": "network_drive",
                "workload": None,
                "payload_bytes": 1024,
                "overlap_embedding": True,
            },
            "overlap_embedding",
        ),
        (
            {"kind": "area_power", "workload": None, "fabric": "ring:8", "backend": "detailed"},
            "num_npus",
        ),
        ({"kind": "area_power", "workload": None, "num_npus": None, "system": "ideal"}, "system"),
        (
            {"kind": "area_power", "workload": None, "num_npus": None, "chunk_bytes": 65536},
            "chunk_bytes",
        ),
        (
            {
                "kind": "area_power",
                "workload": None,
                "num_npus": None,
                "overrides": {"memory": {"transaction_overhead_ns": 10.0}},
            },
            "overrides.memory",
        ),
        # One spec per fabric: a field that ``fabric`` or ``topology``
        # overrides is rejected, and so is the L = 1 torus spelling of a 2D
        # torus.
        ({"fabric": "ring:8", "iterations": 1}, "num_npus"),
        ({"num_npus": None, "fabric": "ring:8", "topology": [4, 2, 2]}, "topology"),
        ({"topology": [4, 2, 2]}, "num_npus"),
        (
            {
                "kind": "network_drive",
                "workload": None,
                "num_npus": None,
                "payload_bytes": 1048576,
                "fabric": "torus:1x4x4",
            },
            "fabric",
        ),
    ],
)
def test_job_probe_is_rejected_naming_its_field(spec, field):
    with pytest.raises(ConfigurationError) as excinfo:
        SimJob.from_json(json.dumps({**BASE_JOB, **spec}))
    assert excinfo.value.field == field
    assert field.rsplit(".", 1)[-1] in str(excinfo.value)


#: Numeric config fields that once passed submission and then failed in the
#: worker (a division by zero, or a resource constructor's bare error).
BOUND_PROBES = [
    ("ace", "sram_banks", 0),
    ("ace", "sram_bank_bandwidth_gbps", 0),
    ("ace", "alu_bytes_per_cycle", 0),
    ("ace", "frequency_mhz", -1),
    ("ace", "tx_dma_bandwidth_gbps", 0),
    ("ace", "rx_dma_bandwidth_gbps", 0),
    ("ace", "memory_bandwidth_gbps", 0),
    ("network", "intra_package_links", 0),
    ("network", "inter_package_links_per_dim", 0),
    ("network", "frequency_mhz", 0),
    ("network", "intra_package_latency_cycles", -1),
    ("network", "inter_package_latency_cycles", -1),
    ("compute", "sm_bytes_per_cycle", 0),
]


@pytest.mark.parametrize(
    "section, name, value", BOUND_PROBES, ids=[f"{s}.{n}" for s, n, _ in BOUND_PROBES]
)
def test_bound_probe_is_rejected_when_the_job_is_built(section, name, value):
    with pytest.raises(ConfigurationError) as excinfo:
        SimJob(workload="resnet50", num_npus=16, overrides={section: {name: value}})
    assert excinfo.value.field == f"overrides.{section}.{name}"


def _manifest(**fields):
    suite = {"kind": "area_power"}
    return {"schema": 1, "name": "probe", "description": "d", "suites": [suite], **fields}


@pytest.mark.parametrize(
    "manifest, field, text",
    [
        (
            _manifest(suites=[{"kind": "area_power", "ace": {"num_fsms": 2.5}}]),
            "overrides.ace.num_fsms",
            "overrides.ace.num_fsms must be an integer, got 2.5",
        ),
        (
            _manifest(invariants=[{"kind": "bound", "metric": "x", "min": NAN, "max": NAN}]),
            "min",
            "field 'min' must be a number or null, got nan",
        ),
        (
            _manifest(suites=[{"kind": "grid", "sizes": [16, "64"]}]),
            "sizes.1",
            "field 'sizes.1' must be an integer, got '64'",
        ),
        (
            _manifest(suites=[{"kind": "area_power", "ace": {"message_bytes": 8192}}]),
            "overrides.ace.message_bytes",
            "invalid override for section 'ace'",
        ),
    ],
)
def test_manifest_probe_fails_repro_validate(tmp_path, capsys, manifest, field, text):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    assert repro_main(["validate", "--dir", str(tmp_path)]) == 1
    assert text in capsys.readouterr().out
    with pytest.raises(ScenarioError) as excinfo:
        compile_scenario(load_scenario_file(path))
    assert excinfo.value.field == field


def _moe_trace():
    return json.loads((REPO_ROOT / "traces" / "moe-transformer.json").read_text("utf-8"))


def _first(trace, kind):
    return next(index for index, node in enumerate(trace["nodes"]) if node["kind"] == kind)


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda t: t.update(batch_size_per_npu=True), "batch_size_per_npu"),
        (lambda t: t.update(compute_time_scale=NAN), "compute_time_scale"),
        (lambda t: t.update(edges=t["edges"] + [["a"]]), f"edges.{len(_moe_trace()['edges'])}"),
        (lambda t: t["nodes"][_first(t, "comm")].update(bytes=2.5), "bytes"),
        (lambda t: t["nodes"][_first(t, "compute")]["op"].update(efficiency=NAN), "efficiency"),
        (lambda t: t["nodes"][_first(t, "compute")]["op"].update(m=0), "m"),
        (lambda t: t["nodes"][_first(t, "compute")]["op"].update(batch=2.0), "batch"),
    ],
)
def test_trace_probe_is_rejected_naming_its_field(edit, field):
    trace = _moe_trace()
    edit(trace)
    with pytest.raises(TraceError) as excinfo:
        Trace.from_dict(trace)
    assert excinfo.value.field == field
    assert f"field {field!r}" in str(excinfo.value)


def test_checking_never_rewrites_a_value():
    job = SimJob(**BASE_JOB, overrides={"memory": {"npu_memory_bandwidth_gbps": 900}})
    value = job.overrides["memory"]["npu_memory_bandwidth_gbps"]
    assert type(value) is int
    assert type(job.build_system().memory.npu_memory_bandwidth_gbps) is int
