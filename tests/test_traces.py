"""Tests for the trace-driven workload subsystem (``repro.traces``).

Four families:

* **Round-trip acceptance** — every built-in workload, exported with the
  trace converter and replayed through the DAG scheduler, reproduces the
  hand-coded iteration time at ``rel=1e-9`` on the paper's torus — including
  a full JSON-text round trip, so file serialisation is covered too.
* **Properties (hypothesis)** — the scheduler's output is invariant under
  topological reordering of the trace's node and edge lists; malformed
  traces (cycles, unknown op kinds, negative bytes, dangling edges) raise
  :class:`~repro.errors.TraceError` naming the trace and node.
* **Spec plumbing** — SimJob validation for the ``trace``/``cost_table``
  fields.
* **Integration** — the ``trace`` scenario suite kind end to end with
  invariant ``where`` filters on trace rows, the shipped trace files, and
  the ``repro trace`` CLI verbs via subprocess.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import build_workload, make_system, simulate_training
from repro.errors import ConfigurationError, TraceError
from repro.runner import SimJob, SweepRunner, trace_job
from repro.scenarios import find_scenario, run_scenario
from repro.traces import (
    DEFAULT_COST_TABLE,
    DeviceCostTable,
    Trace,
    convert_workload,
    cost_table_names,
    discover_traces,
    find_cost_table,
    find_trace,
    lower_trace,
    register_cost_table,
    topological_order,
    workload_to_trace,
)
from repro.workloads import available_workloads

REPO_ROOT = Path(__file__).resolve().parents[1]
SHIPPED_TRACES = REPO_ROOT / "traces"

DEFAULT_SETTINGS = settings(max_examples=30, deadline=None)


# ----------------------------------------------------------------------
# Round-trip acceptance: converter -> JSON -> scheduler == hand-coded
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(available_workloads()))
    def test_convert_and_replay_matches_hand_coded(self, name):
        golden_workload = build_workload(name)
        golden = simulate_training(
            make_system("ace"),
            golden_workload,
            num_npus=16,
            iterations=1,
            chunk_bytes=1 << 20,
        )
        # Full text round trip: Trace -> JSON -> Trace -> Workload.
        text = json.dumps(workload_to_trace(golden_workload).to_dict())
        replayed = lower_trace(Trace.from_dict(json.loads(text)))
        result = simulate_training(
            make_system("ace"),
            replayed,
            num_npus=16,
            iterations=1,
            chunk_bytes=1 << 20,
        )
        assert result.iteration_time_us == pytest.approx(
            golden.iteration_time_us, rel=1e-9
        )
        assert result.total_compute_us == pytest.approx(
            golden.total_compute_us, rel=1e-9
        )

    def test_convert_workload_rejects_unknown_names(self):
        with pytest.raises(TraceError, match="resnet50"):
            convert_workload("nope")

    def test_converted_trace_preserves_workload_shape(self):
        workload = build_workload("dlrm")
        replayed = lower_trace(workload_to_trace(workload))
        assert len(replayed.layers) == len(workload.layers)
        assert replayed.batch_size_per_npu == workload.batch_size_per_npu
        assert (replayed.embedding is None) == (workload.embedding is None)


# ----------------------------------------------------------------------
# Properties: reordering invariance + typed malformed-trace errors
# ----------------------------------------------------------------------
def _trace_dict(num_layers=3):
    nodes, edges = [], []
    prev = None
    for i in range(num_layers):
        tag = f"l{i}"
        nodes.append(
            {
                "id": f"{tag}.fwd",
                "kind": "compute",
                "phase": "forward",
                "layer": tag,
                "op": {
                    "kind": "tensor",
                    "name": f"{tag}.fwd",
                    "flops": 1e9 * (i + 1),
                    "bytes_read": 1e6,
                    "bytes_written": 1e6,
                },
            }
        )
        if prev is not None:
            edges.append([prev, f"{tag}.fwd"])
        prev = f"{tag}.fwd"
    for i in reversed(range(num_layers)):
        tag = f"l{i}"
        nodes.append(
            {
                "id": f"{tag}.wgrad",
                "kind": "compute",
                "phase": "weight_grad",
                "layer": tag,
                "op": {
                    "kind": "gemm",
                    "name": f"{tag}.wgrad",
                    "m": 256,
                    "n": 256,
                    "k": 64 * (i + 1),
                },
            }
        )
        nodes.append(
            {
                "id": f"{tag}.ar",
                "kind": "comm",
                "role": "weight_grad",
                "layer": tag,
                "collective": "all_reduce",
                "bytes": 1 << (20 + i),
            }
        )
        edges.append([prev, f"{tag}.wgrad"])
        edges.append([f"{tag}.wgrad", f"{tag}.ar"])
        prev = f"{tag}.wgrad"
    return {
        "schema": 1,
        "name": "prop",
        "description": "property-test trace",
        "batch_size_per_npu": 4,
        "nodes": nodes,
        "edges": edges,
    }


class TestProperties:
    @DEFAULT_SETTINGS
    @given(data=st.data())
    def test_lowering_invariant_under_node_reordering(self, data):
        base = _trace_dict()
        reference = lower_trace(Trace.from_dict(base))
        shuffled = dict(base)
        shuffled["nodes"] = data.draw(st.permutations(base["nodes"]))
        shuffled["edges"] = data.draw(st.permutations(base["edges"]))
        assert lower_trace(Trace.from_dict(shuffled)) == reference

    @DEFAULT_SETTINGS
    @given(data=st.data())
    def test_topological_order_depends_only_on_edges(self, data):
        base = _trace_dict()
        reference = [node.id for node in topological_order(Trace.from_dict(base))]
        shuffled = dict(base)
        shuffled["nodes"] = data.draw(st.permutations(base["nodes"]))
        assert [n.id for n in topological_order(Trace.from_dict(shuffled))] == reference

    def test_cycle_raises_naming_trace_and_node(self):
        bad = _trace_dict()
        bad["edges"] = bad["edges"] + [["l2.ar", "l0.fwd"]]
        with pytest.raises(TraceError, match="'prop'.*dependency cycle through node"):
            Trace.from_dict(bad)

    def test_unknown_op_kind_raises_naming_node(self):
        bad = copy.deepcopy(_trace_dict())
        bad["nodes"][0]["op"]["kind"] = "weird"
        with pytest.raises(TraceError, match="'prop'.*'l0.fwd'.*unknown op kind 'weird'"):
            Trace.from_dict(bad)

    def test_negative_bytes_raises_naming_node(self):
        bad = copy.deepcopy(_trace_dict())
        for node in bad["nodes"]:
            if node["kind"] == "comm":
                node["bytes"] = -4096
                broken = node["id"]
                break
        with pytest.raises(
            TraceError, match=f"'prop'.*{broken!r}.*'bytes' must be positive"
        ):
            Trace.from_dict(bad)

    def test_dangling_edge_raises(self):
        bad = _trace_dict()
        bad["edges"] = bad["edges"] + [["l0.fwd", "ghost"]]
        with pytest.raises(TraceError, match="'prop'.*unknown node 'ghost'.*dangling"):
            Trace.from_dict(bad)

    def test_unknown_field_raises(self):
        bad = _trace_dict()
        bad["bogus"] = True
        with pytest.raises(TraceError, match=r"unknown field\(s\) \['bogus'\]"):
            Trace.from_dict(bad)

    def test_duplicate_node_id_raises(self):
        bad = _trace_dict()
        bad["nodes"] = bad["nodes"] + [bad["nodes"][0]]
        with pytest.raises(TraceError, match="duplicate node id"):
            Trace.from_dict(bad)


# ----------------------------------------------------------------------
# Device cost tables
# ----------------------------------------------------------------------
class TestCostTables:
    def test_default_table_is_registered(self):
        assert DEFAULT_COST_TABLE in cost_table_names()
        assert find_cost_table(None).name == DEFAULT_COST_TABLE

    def test_unknown_table_lists_available(self):
        with pytest.raises(TraceError, match="paper-npu"):
            find_cost_table("tpu-v9")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(TraceError, match="already registered"):
            register_cost_table(DeviceCostTable(name="a100", tflops=1.0, memory_bandwidth_gbps=1.0))

    def test_measured_descriptor_inverts_the_roofline_exactly(self):
        # A measured duration replayed on the table's own device reproduces
        # the measurement: resolve() synthesises the FLOP count whose
        # roofline time is exactly the recorded duration.
        table = find_cost_table("paper-npu")
        cost = table.resolve(
            {"kind": "measured", "name": "k", "duration_ns": 5_000.0}, "ctx"
        )
        assert table.roofline().kernel_time_ns(cost) == pytest.approx(5_000.0)

    def test_measured_durations_floor_at_launch_overhead(self):
        table = find_cost_table("paper-npu")
        cost = table.resolve(
            {"kind": "measured", "name": "k", "duration_ns": 500.0}, "ctx"
        )
        assert cost.flops == 0.0

    def test_measured_scales_with_device_throughput(self):
        slow = find_cost_table("paper-npu")
        cost = slow.resolve(
            {"kind": "measured", "name": "k", "duration_ns": 10_000.0}, "ctx"
        )
        # The same kernel on an H100-calibrated system runs faster.
        fast = find_cost_table("h100").roofline().kernel_time_ns(cost)
        assert fast < 10_000.0


# ----------------------------------------------------------------------
# SimJob plumbing
# ----------------------------------------------------------------------


class TestSimJobPlumbing:
    def test_trace_job_spec_round_trips(self):
        job = trace_job(
            system="ace", trace="moe-transformer", num_npus=16,
            cost_table="a100", chunk_bytes=1 << 20,
        )
        data = job.to_dict()
        assert data["trace"] == "moe-transformer"
        assert data["cost_table"] == "a100"
        assert data["workload"] is None
        assert SimJob.from_dict(data) == job

    def test_training_needs_exactly_one_of_workload_or_trace(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            SimJob(
                system="ace", workload="resnet50", trace="moe-transformer", num_npus=16
            )
        with pytest.raises(ConfigurationError, match="exactly one"):
            SimJob(system="ace", workload=None, num_npus=16)

    def test_cost_table_requires_a_trace(self):
        with pytest.raises(ConfigurationError, match="cost_table"):
            SimJob(system="ace", workload="resnet50", cost_table="a100", num_npus=16)

    def test_unknown_cost_table_rejected_at_spec_time(self):
        with pytest.raises(ConfigurationError, match="tpu-v9"):
            trace_job(system="ace", trace="x", num_npus=16, cost_table="tpu-v9")

    def test_trace_rejected_on_non_training_kinds(self):
        with pytest.raises(ConfigurationError, match="training"):
            SimJob(
                system="ace", kind="network_drive", workload=None, num_npus=16,
                payload_bytes=1 << 20, trace="moe-transformer",
            )


# ----------------------------------------------------------------------
# Shipped traces + trace suite integration
# ----------------------------------------------------------------------
class TestShippedTraces:
    def test_shipped_traces_validate_and_lower_everywhere(self):
        traces = discover_traces(SHIPPED_TRACES)
        assert [t.name for t in traces] == sorted(
            p.stem for p in SHIPPED_TRACES.glob("*.json")
        )
        assert "moe-transformer" in [t.name for t in traces]
        for trace in traces:
            for table in cost_table_names():
                workload = lower_trace(trace, table)
                assert workload.layers

    def test_moe_trace_uses_all_to_all_activations(self):
        trace = find_trace("moe-transformer", SHIPPED_TRACES)
        workload = lower_trace(trace)
        moe = [layer for layer in workload.layers if "moe" in layer.name]
        assert moe, "expected MoE layers in the shipped trace"
        for layer in moe:
            assert layer.forward_comm_op.value == "all_to_all"
            assert layer.forward_allreduce_bytes > 0

    def test_trace_job_executes_end_to_end(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACES_DIR", str(SHIPPED_TRACES))
        job = trace_job(
            system="ace", trace="moe-transformer", num_npus=16, iterations=1,
            chunk_bytes=1 << 20,
        )
        result = job.execute()
        assert result.workload_name == "moe-transformer"
        assert result.iteration_time_us > 0


def _write_tiny_trace(directory: Path) -> None:
    data = _trace_dict()
    data["name"] = "tiny"
    (directory / "tiny.json").write_text(
        json.dumps(Trace.from_dict(data).to_dict(), indent=2), encoding="utf-8"
    )


class TestTraceSuite:
    def test_trace_suite_runs_with_where_filters(self, tmp_path, monkeypatch):
        traces_dir = tmp_path / "traces"
        traces_dir.mkdir()
        _write_tiny_trace(traces_dir)
        monkeypatch.setenv("REPRO_TRACES_DIR", str(traces_dir))
        scenario_dir = tmp_path / "scenarios"
        scenario_dir.mkdir()
        (scenario_dir / "tiny-trace.json").write_text(
            json.dumps(
                {
                    "schema": 1,
                    "name": "tiny-trace",
                    "description": "trace suite smoke",
                    "suites": [
                        {
                            "kind": "grid",
                            "traces": ["tiny"],
                            "systems": ["ace", "ideal"],
                            "sizes": [8],
                            "iterations": 1,
                            "cost_table": "paper-npu",
                        }
                    ],
                    "invariants": [
                        {
                            "kind": "positive",
                            "metric": "iteration_time_us",
                            "where": {"trace": "tiny"},
                        },
                        {
                            "kind": "positive",
                            "metric": "iteration_time_us",
                            "where": {"cost_table": "paper-npu"},
                        },
                        {
                            "kind": "ordering",
                            "metric": "iteration_time_us",
                            "order": ["Ideal", "ACE"],
                            "group_by": ["trace"],
                        },
                    ],
                },
                indent=2,
            ),
            encoding="utf-8",
        )
        scenario = find_scenario("tiny-trace", scenario_dir)
        report = run_scenario(scenario, runner=SweepRunner(workers=1))
        assert all(record["ok"] for record in report["invariants"])
        rows = report["results"]
        assert len(rows) == 2
        for row in rows:
            assert row["trace"] == "tiny"
            assert row["cost_table"] == "paper-npu"
            assert row["workload"] == "tiny"

    def test_unknown_trace_fails_at_compile_time(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACES_DIR", str(tmp_path))
        scenario_dir = tmp_path / "scenarios"
        scenario_dir.mkdir()
        (scenario_dir / "bad.json").write_text(
            json.dumps(
                {
                    "schema": 1,
                    "name": "bad",
                    "description": "missing trace",
                    "suites": [
                        {"kind": "grid", "traces": ["ghost"], "systems": ["ace"], "sizes": [4]}
                    ],
                }
            ),
            encoding="utf-8",
        )
        from repro.errors import ScenarioError
        from repro.scenarios import compile_scenario

        with pytest.raises(ScenarioError, match="ghost"):
            compile_scenario(find_scenario("bad", scenario_dir))


# ----------------------------------------------------------------------
# CLI subprocess smoke
# ----------------------------------------------------------------------
def run_cli(*args, cwd=REPO_ROOT, timeout=300):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.setdefault("REPRO_WORKERS", "1")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=str(cwd),
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestTraceCli:
    def test_trace_list_names_shipped_traces(self):
        proc = run_cli("trace", "list", "--dir", str(SHIPPED_TRACES))
        assert proc.returncode == 0, proc.stderr
        assert "moe-transformer" in proc.stdout
        assert "paper-npu" in proc.stdout

    def test_trace_list_json_is_machine_readable(self):
        proc = run_cli("trace", "list", "--dir", str(SHIPPED_TRACES), "--json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert {t["name"] for t in payload["traces"]} >= {"moe-transformer"}
        assert {t["name"] for t in payload["cost_tables"]} == set(cost_table_names())

    def test_trace_validate_passes_on_shipped_traces(self):
        proc = run_cli("trace", "validate", "--dir", str(SHIPPED_TRACES))
        assert proc.returncode == 0, proc.stderr
        assert "all" in proc.stdout and "valid" in proc.stdout

    def test_trace_validate_fails_on_broken_trace(self, tmp_path):
        (tmp_path / "broken.json").write_text("{not json", encoding="utf-8")
        proc = run_cli("trace", "validate", "--dir", str(tmp_path))
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout

    def test_trace_convert_round_trips_through_the_cli(self, tmp_path):
        proc = run_cli("trace", "convert", "resnet50", "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 0, proc.stderr
        trace = Trace.from_dict(
            json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
        )
        assert trace.name == "resnet50"
        assert lower_trace(trace).layers

    def test_trace_convert_all_writes_every_builtin(self, tmp_path):
        proc = run_cli("trace", "convert", "all", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.stem for p in tmp_path.glob("*.json")) == sorted(
            available_workloads()
        )

    def test_list_and_expand_surface_trace_suites(self):
        proc = run_cli("list", "--dir", str(REPO_ROOT / "scenarios"))
        assert proc.returncode == 0, proc.stderr
        assert "traces: moe-transformer" in proc.stdout
        proc = run_cli("expand", "moe-trace", "--dir", str(REPO_ROOT / "scenarios"))
        assert proc.returncode == 0, proc.stderr
        assert "(grid)" in proc.stdout
        assert '"trace":"moe-transformer"' in proc.stdout

    def test_run_moe_trace_scenario(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli(
            "run", "moe-trace", "--out", str(out),
            "--dir", str(REPO_ROOT / "scenarios"),
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text(encoding="utf-8"))
        assert all(record["ok"] for record in report["invariants"])
        assert {row["trace"] for row in report["results"]} == {"moe-transformer"}
