"""Scenario manifests, invariants, and the ``python -m repro`` CLI.

Covers the manifest schema (round-trip, unknown-field/bad-spec errors),
compilation into SimJob batches (byte-identical to the hand-written harness
jobs for the paper grid), invariant checking (violation and typo'd-metric
detection), the CLI subcommands end to end via subprocess, and a hypothesis
property that any generated manifest compiles to hashable jobs.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, InvariantViolation, ScenarioError
from repro.experiments.common import PAPER_SYSTEMS, grid_jobs
from repro.experiments.model_agreement import agreement_jobs
from repro.runner import ResultCache, SimJob, SweepRunner
from repro.scenarios import (
    SUITE_KINDS,
    Invariant,
    Scenario,
    check_invariants,
    compile_scenario,
    discover_scenarios,
    enforce_invariants,
    figure_names,
    find_scenario,
    load_scenario_file,
    run_scenario,
    scenario_jobs,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = REPO_ROOT / "scenarios"
GOLDEN_PATH = Path(__file__).parent / "golden_values.json"


#: (job count, SHA-256 of the newline-joined canonical job JSON) per shipped
#: manifest, recorded with every SimJob field listed (sorted keys, compact)
#: from the job lists the manifests compiled to before the one-spelling-
#: per-knob change.  A model-agreement manifest contributes its paired jobs.
PINNED_JOB_LISTS = {
    "backend-validation": (12, "5ae4b6165b30029410cf989701f0d24f5717c1cc1bd354a0887f33d4e0facc22"),
    "compute-validation": (14, "ff3b0150683664bd8a7fd7d3501af9e7c1f2df7dfe067bf1f6992c9cf6a8f6c3"),
    "cross-topology": (22, "3134e4d3dbd6c6b1ff2fab44a7da977c156832616d95bc61aa0e396f3b0007a5"),
    "detailed-contention": (8, "bda0a0e6baf6a516c9a9e3f985a1ee70d3f5019780ddd95902ad6bfcc4f39663"),
    "fig10-overlap": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig11-scaling": (20, "f1c2204908c4d20c0bc591537ad39b6b09c3717c22505a3715b05422eb992bca"),
    "fig12-dlrm-opt": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig4-microbench": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig5-membw": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig6-sm-sweep": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig9-dse": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "hybrid-scale": (13, "2bc2e4f291544bee22d981e6265fe962d33a336d0dc3fc35934fb1cc5c9d41f0"),
    "megatron-tp-scaling": (9, "23d23808465b4a16ce53d2a9e6eb97f2d8958b6e80fc234e5bd0191b627be6d7"),
    "moe-trace": (9, "0df77a0fe149565765ba21860f32e67b6a0e4fef92bc1dea453de599815cd4d0"),
    "paper-fast": (5, "c035e76acf3bc6ef385734cf956fe25289b5e40ad46d1af4f6aa51dc07bea23f"),
    "paper-full": (60, "42f400d92e9c03be6c6e67367cfb0b1cf45c7ee01126ab3513d34f2157f56117"),
    "parallelism-sweep": (128, "02a5a04253abcc142206513dfcb4c93a554f594a1bcff256f6cde243f5c2d918"),
    "pipeline-bubble": (3, "4b5c0ae7c2a325c48c20ccf530b7b28590f5c792f5acd5e619e6fe60a16b2c04"),
    "table4-area": (1, "6601fb173841fcff8784ed6ea50d5ef650ba052d9053f6a8c04824d0fde127c4"),
    "torus2d-fc-drive": (13, "082403e4bf44e07fe05bd4e332f4b95ad9e611597a7dfd4996981ba7e8c9a390"),
}


def minimal_manifest(**overrides) -> dict:
    data = {
        "schema": 1,
        "name": "tiny",
        "description": "a minimal scenario",
        "suites": [{"kind": "area_power"}],
    }
    data.update(overrides)
    return data


# ---------------------------------------------------------------------------
# Schema: round trip and validation errors
# ---------------------------------------------------------------------------


class TestSchema:
    def test_round_trip_minimal(self):
        scenario = Scenario.from_dict(minimal_manifest())
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_round_trip_every_shipped_manifest(self):
        scenarios = discover_scenarios(SCENARIO_DIR)
        assert len(scenarios) >= 10
        for scenario in scenarios:
            assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_unknown_top_level_field(self):
        with pytest.raises(ScenarioError, match=r"unknown field\(s\) \['grids'\]"):
            Scenario.from_dict(minimal_manifest(grids=[]))

    def test_missing_schema_version(self):
        data = minimal_manifest()
        del data["schema"]
        with pytest.raises(ScenarioError, match="'schema' is missing"):
            Scenario.from_dict(data)

    def test_unsupported_schema_version(self):
        with pytest.raises(ScenarioError, match="unsupported schema version 99"):
            Scenario.from_dict(minimal_manifest(schema=99))

    def test_bad_name_slug(self):
        with pytest.raises(ScenarioError, match="lowercase slug"):
            Scenario.from_dict(minimal_manifest(name="Not A Slug"))

    def test_empty_description(self):
        with pytest.raises(ScenarioError, match="non-empty 'description'"):
            Scenario.from_dict(minimal_manifest(description=""))

    def test_unknown_suite_kind(self):
        data = minimal_manifest(suites=[{"kind": "quantum_grid"}])
        with pytest.raises(ScenarioError, match="unknown suite kind 'quantum_grid'"):
            Scenario.from_dict(data)

    def test_unknown_suite_field_names_the_field_and_suite(self):
        data = minimal_manifest(
            suites=[{"kind": "grid", "workloadz": ["resnet50"]}]
        )
        with pytest.raises(ScenarioError, match=r"suite #0.*workloadz"):
            Scenario.from_dict(data)

    def test_suite_field_type_error(self):
        data = minimal_manifest(suites=[{"kind": "grid", "sizes": "16"}])
        with pytest.raises(ScenarioError, match="'sizes' must be a list of integers"):
            Scenario.from_dict(data)

    def test_network_drive_requires_payload_and_fabrics(self):
        data = minimal_manifest(suites=[{"kind": "network_drive", "fabrics": ["ring:4"]}])
        with pytest.raises(ScenarioError, match="'payload_bytes' is missing"):
            Scenario.from_dict(data)

    def test_unknown_invariant_kind(self):
        data = minimal_manifest(invariants=[{"kind": "monotone", "metric": "x"}])
        with pytest.raises(ScenarioError, match="unknown invariant kind 'monotone'"):
            Scenario.from_dict(data)

    def test_ordering_needs_two_names(self):
        data = minimal_manifest(
            invariants=[{"kind": "ordering", "metric": "x", "order": ["only"]}]
        )
        with pytest.raises(ScenarioError, match="at least two names"):
            Scenario.from_dict(data)

    def test_bound_needs_min_or_max(self):
        data = minimal_manifest(invariants=[{"kind": "bound", "metric": "x"}])
        with pytest.raises(ScenarioError, match="'min' and/or 'max'"):
            Scenario.from_dict(data)

    def test_suites_must_be_non_empty(self):
        with pytest.raises(ScenarioError, match="non-empty list"):
            Scenario.from_dict(minimal_manifest(suites=[]))

    def test_folded_suite_kinds_are_unknown(self):
        assert SUITE_KINDS == (
            "grid",
            "network_drive",
            "cross_topology",
            "model_agreement",
            "area_power",
            "figure",
        )
        for kind in ("training_grid", "sweep", "trace", "backend_validation", "compute_validation"):
            data = minimal_manifest(suites=[{"kind": kind}])
            with pytest.raises(ScenarioError, match=rf"unknown suite kind '{kind}'; expected"):
                Scenario.from_dict(data)

    @pytest.mark.parametrize(
        "suite, message",
        [
            ({"traces": ["t"], "workloads": ["resnet50"]}, "field 'workloads' does not apply"),
            ({"traces": ["t"], "fast": True}, "field 'fast' does not apply"),
            ({"traces": ["t"], "overlap_embedding": True}, "field 'overlap_embedding' does not"),
            ({"cost_table": "paper-npu"}, "field 'cost_table' needs a 'traces' list"),
        ],
    )
    def test_grid_rejects_fields_of_the_other_model_source(self, suite, message):
        data = minimal_manifest(suites=[{"kind": "grid", **suite}])
        with pytest.raises(ScenarioError, match=rf"suite #0 \(grid\): {message}"):
            Scenario.from_dict(data)

    def test_model_agreement_requires_a_known_knob(self):
        data = minimal_manifest(suites=[{"kind": "model_agreement"}])
        with pytest.raises(ScenarioError, match="'knob' is missing"):
            Scenario.from_dict(data)
        data = minimal_manifest(suites=[{"kind": "model_agreement", "knob": "fabric"}])
        with pytest.raises(ScenarioError, match=r"suite #0.*unknown agreement knob 'fabric'"):
            compile_scenario(Scenario.from_dict(data))


# ---------------------------------------------------------------------------
# Loader: files, discovery, compilation
# ---------------------------------------------------------------------------


class TestLoader:
    def test_bad_json_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario_file(path)

    def test_name_must_match_file_stem(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps(minimal_manifest()), encoding="utf-8")
        with pytest.raises(ScenarioError, match="must match the file stem"):
            load_scenario_file(path)

    def test_find_scenario_lists_available(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(minimal_manifest()), encoding="utf-8")
        with pytest.raises(ScenarioError, match=r"available: \['tiny'\]"):
            find_scenario("nope", tmp_path)

    def test_bad_fabric_spec_is_wrapped_with_context(self):
        data = minimal_manifest(
            suites=[
                {
                    "kind": "network_drive",
                    "payload_bytes": 1024,
                    "fabrics": ["torus:not-a-shape"],
                }
            ]
        )
        scenario = Scenario.from_dict(data)
        with pytest.raises(ScenarioError, match="suite #0"):
            compile_scenario(scenario)

    def test_unknown_figure_name(self):
        data = minimal_manifest(suites=[{"kind": "figure", "figure": "fig99"}])
        scenario = Scenario.from_dict(data)
        with pytest.raises(ScenarioError, match="unknown figure 'fig99'"):
            compile_scenario(scenario)

    def test_unknown_system_name_fails_at_compile_time(self):
        data = minimal_manifest(
            suites=[{"kind": "grid", "systems": ["acee"], "sizes": [16]}]
        )
        with pytest.raises(ScenarioError, match=r"unknown system name\(s\) \['acee'\]"):
            compile_scenario(Scenario.from_dict(data))

    def test_unknown_workload_name_fails_at_compile_time(self):
        data = minimal_manifest(
            suites=[{"kind": "grid", "workloads": ["resnet51"], "sizes": [16]}]
        )
        with pytest.raises(ScenarioError, match="unknown workload name"):
            compile_scenario(Scenario.from_dict(data))

    def test_unknown_ace_override_field_fails_at_compile_time(self):
        data = minimal_manifest(suites=[{"kind": "area_power", "ace": {"sram_mbz": 8}}])
        with pytest.raises(ScenarioError, match=r"suite #0 \(area_power\).*'sram_mbz'"):
            compile_scenario(Scenario.from_dict(data))

    def test_wrapped_figure_accepts_its_harness_options(self):
        suite = {"kind": "figure", "figure": "fig11", "fast": True, "options": {"sizes": [16]}}
        (compiled,) = compile_scenario(Scenario.from_dict(minimal_manifest(suites=[suite])))
        assert dict(compiled.figure.options) == {"sizes": [16], "fast": True}

    def test_every_figure_is_used_by_a_shipped_manifest(self):
        used = {
            suite.spec["figure"]
            for scenario in discover_scenarios(SCENARIO_DIR)
            for suite in scenario.suites
            if suite.kind == "figure"
        }
        assert set(figure_names()) <= used

    def test_unknown_figure_option(self):
        data = minimal_manifest(
            suites=[{"kind": "figure", "figure": "fig10", "options": {"bogus": 1}}]
        )
        scenario = Scenario.from_dict(data)
        with pytest.raises(ScenarioError, match=r"does not accept option\(s\) \['bogus'\]"):
            compile_scenario(scenario)

    def test_every_shipped_manifest_compiles(self):
        for scenario in discover_scenarios(SCENARIO_DIR):
            compiled = compile_scenario(scenario)
            assert compiled, scenario.name

    def test_paper_fast_compiles_to_harness_identical_jobs(self):
        """Acceptance: the manifest path produces byte-identical spec hashes."""
        scenario = find_scenario("paper-fast", SCENARIO_DIR)
        manifest_jobs = scenario_jobs(scenario)
        harness_jobs = grid_jobs(
            systems=PAPER_SYSTEMS, workloads=("resnet50",), sizes=(16,), fast=True
        )
        assert [job.to_json() for job in manifest_jobs] == [
            job.to_json() for job in harness_jobs
        ]
        assert [job.spec_hash() for job in manifest_jobs] == [
            job.spec_hash() for job in harness_jobs
        ]

    def test_fig11_manifest_matches_fast_harness_grid(self):
        scenario = find_scenario("fig11-scaling", SCENARIO_DIR)
        manifest_jobs = scenario_jobs(scenario)
        harness_jobs = grid_jobs(
            systems=PAPER_SYSTEMS,
            workloads=("resnet50", "dlrm"),
            sizes=(16, 64),
            fast=True,
        )
        assert [job.spec_hash() for job in manifest_jobs] == [
            job.spec_hash() for job in harness_jobs
        ]

    def test_sweep_expansion_matches_hand_enumerated_grids(self):
        """A ``grid`` block is byte-identical to one ``grid_jobs`` batch per
        outer-axis cell (fabric x backend x algorithm x parallelism), so
        grid-expanded specs hit exactly the cache keys a hand-written
        harness would."""
        scenario = Scenario.from_dict(
            {
                "schema": 1,
                "name": "sweep-equivalence",
                "description": "sweep templating equivalence fixture",
                "suites": [
                    {
                        "kind": "grid",
                        "systems": ["ace", "ideal"],
                        "workloads": ["resnet50", "gnmt"],
                        "sizes": [16, 32],
                        "backends": [None, "hybrid"],
                        "algorithms": ["auto", "ring"],
                        "parallelisms": [None, "zero", "pipeline:4x8"],
                        "iterations": 1,
                        "fast": True,
                    }
                ],
            }
        )
        manifest_jobs = scenario_jobs(scenario)
        harness_jobs = []
        for backend in (None, "hybrid"):
            for algorithm in ("auto", "ring"):
                for parallelism in (None, "zero", "pipeline:4x8"):
                    harness_jobs.extend(
                        grid_jobs(
                            systems=("ace", "ideal"),
                            workloads=("resnet50", "gnmt"),
                            sizes=(16, 32),
                            iterations=1,
                            fast=True,
                            backend=backend,
                            algorithm=algorithm,
                            parallelism=parallelism,
                        )
                    )
        assert len(manifest_jobs) == 96
        assert [job.to_json() for job in manifest_jobs] == [
            job.to_json() for job in harness_jobs
        ]
        assert [job.spec_hash() for job in manifest_jobs] == [
            job.spec_hash() for job in harness_jobs
        ]

    def test_grid_rejects_sizes_without_a_canonical_torus(self):
        data = minimal_manifest(
            suites=[
                {"kind": "area_power"},
                {"kind": "grid", "systems": ["ace"], "workloads": ["resnet50"], "sizes": [12]},
            ]
        )
        with pytest.raises(ScenarioError, match=r"suite #1 \(grid\).*torus shape for 12 NPUs"):
            compile_scenario(Scenario.from_dict(data))

    def test_grid_null_axis_entry_keeps_the_field_default(self):
        suite = {"kind": "grid", "systems": ["ace"], "workloads": ["resnet50"]}
        data = minimal_manifest(suites=[{**suite, "algorithms": [None, "ring"]}])
        jobs = scenario_jobs(Scenario.from_dict(data))
        assert [job.algorithm for job in jobs] == ["auto", "ring"]
        assert jobs[0] == scenario_jobs(Scenario.from_dict(minimal_manifest(suites=[suite])))[0]

    def test_grid_fabric_spec_needs_a_single_size(self):
        data = minimal_manifest(
            suites=[{"kind": "grid", "fabrics": ["switch:16"], "sizes": [16, 32]}]
        )
        with pytest.raises(ScenarioError, match="fabric spec fixes the platform size"):
            compile_scenario(Scenario.from_dict(data))

    def test_model_agreement_rejects_drive_cells_under_compute(self):
        data = minimal_manifest(
            suites=[
                {
                    "kind": "model_agreement",
                    "knob": "compute",
                    "drive_cells": [["switch:16", "all_reduce"]],
                }
            ]
        )
        with pytest.raises(ScenarioError, match="compute only applies to training jobs"):
            compile_scenario(Scenario.from_dict(data))

    def test_every_shipped_manifest_matches_its_pinned_job_list(self):
        """Every shipped manifest compiles to the exact, ordered job list it
        compiled to when the digests were recorded: a model-agreement suite
        contributes its paired jobs, every other suite its compiled jobs."""
        digests = {}
        for scenario in discover_scenarios(SCENARIO_DIR):
            jobs = []
            for compiled in compile_scenario(scenario):
                if compiled.suite.kind == "model_agreement":
                    jobs.extend(agreement_jobs(**compiled.figure.options))
                else:
                    jobs.extend(compiled.jobs)
            text = "\n".join(job.to_json() for job in jobs)
            digests[scenario.name] = (len(jobs), hashlib.sha256(text.encode()).hexdigest())
        assert digests == PINNED_JOB_LISTS

    def test_sweep_rejects_pipeline_over_embedding_workloads(self):
        scenario = Scenario.from_dict(
            {
                "schema": 1,
                "name": "sweep-bad",
                "description": "pipeline cannot span dlrm embedding exchange",
                "suites": [
                    {
                        "kind": "grid",
                        "workloads": ["dlrm"],
                        "parallelisms": ["pipeline:2x4"],
                    }
                ],
            }
        )
        with pytest.raises(ConfigurationError, match="pipeline"):
            scenario_jobs(scenario)


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

ROWS = [
    {"system": "Ideal", "workload": "w", "npus": 16, "iteration_time_us": 10.0},
    {"system": "ACE", "workload": "w", "npus": 16, "iteration_time_us": 12.0},
    {"system": "Baseline", "workload": "w", "npus": 16, "iteration_time_us": 15.0},
]


class TestInvariants:
    def test_ordering_holds(self):
        invariant = Invariant(
            kind="ordering",
            metric="iteration_time_us",
            order=("Ideal", "ACE", "Baseline"),
        )
        scenario = Scenario.from_dict(minimal_manifest())
        records = check_invariants(
            Scenario(
                name=scenario.name,
                description=scenario.description,
                suites=scenario.suites,
                invariants=(invariant,),
            ),
            ROWS,
        )
        assert records[0]["ok"], records[0]["detail"]

    def test_ordering_violation_names_the_pair(self):
        invariant = Invariant(
            kind="ordering",
            metric="iteration_time_us",
            order=("Baseline", "Ideal"),
        )
        scenario = Scenario.from_dict(minimal_manifest())
        bad = Scenario(
            name=scenario.name,
            description=scenario.description,
            suites=scenario.suites,
            invariants=(invariant,),
        )
        with pytest.raises(InvariantViolation, match="Baseline=15 > Ideal=10"):
            enforce_invariants(bad, ROWS)

    def test_bound_violation(self):
        invariant = Invariant(kind="bound", metric="iteration_time_us", max=11.0)
        record = check_invariants(
            Scenario(name="x", description="d", invariants=(invariant,)), ROWS
        )[0]
        assert not record["ok"]
        assert "> max 11.0" in record["detail"]

    def test_positive_violation(self):
        invariant = Invariant(kind="positive", metric="iteration_time_us")
        rows = ROWS + [{"system": "Broken", "iteration_time_us": 0.0}]
        record = check_invariants(
            Scenario(name="x", description="d", invariants=(invariant,)), rows
        )[0]
        assert not record["ok"]

    def test_typo_metric_is_a_failure_not_a_pass(self):
        invariant = Invariant(kind="positive", metric="iteration_time_uz")
        record = check_invariants(
            Scenario(name="x", description="d", invariants=(invariant,)), ROWS
        )[0]
        assert not record["ok"]
        assert "no result row carries metric" in record["detail"]

    def test_where_filter_restricts_rows(self):
        invariant = Invariant(
            kind="bound",
            metric="iteration_time_us",
            max=11.0,
            where={"system": "Ideal"},
        )
        record = check_invariants(
            Scenario(name="x", description="d", invariants=(invariant,)), ROWS
        )[0]
        assert record["ok"], record["detail"]


# ---------------------------------------------------------------------------
# Execution: manifest path reproduces the golden grid numbers
# ---------------------------------------------------------------------------


class TestRunScenario:
    def test_paper_fast_reproduces_golden_values(self):
        scenario = find_scenario("paper-fast", SCENARIO_DIR)
        runner = SweepRunner(workers=1, cache=ResultCache())
        report = run_scenario(scenario, runner=runner)
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        expected = golden["grid_resnet50_16npus_iteration_us"]
        actual = {
            row["system"]: row["iteration_time_us"] for row in report["results"]
        }
        assert set(actual) == set(expected)
        for system, value in expected.items():
            assert actual[system] == pytest.approx(value, rel=1e-9), system
        for record in report["invariants"]:
            assert record["ok"], record
        for row in report["results"]:
            assert len(row["spec_hash"]) == 64
            assert row["wall_s"] >= 0.0

    @pytest.mark.parametrize(
        "name,metric,rows",
        [("fig11-scaling", "speedup_vs_best_baseline", 4), ("fig5-membw", "memory_bw_reduction", 2)],
    )
    def test_figure_manifest_reports_its_headline_claim(self, name, metric, rows):
        scenario = find_scenario(name, SCENARIO_DIR)
        report = run_scenario(scenario, runner=SweepRunner(workers=1, cache=ResultCache()))
        assert sum(metric in row for row in report["results"]) == rows
        assert all(record["ok"] for record in report["invariants"])

    def test_report_shape_matches_bench_convention(self):
        scenario = find_scenario("table4-area", SCENARIO_DIR)
        report = run_scenario(scenario, runner=SweepRunner(workers=1))
        for key in ("benchmark", "scenario", "spec_version", "wall_s", "results"):
            assert key in report
        assert report["benchmark"] == "scenario:table4-area"
        for row in report["results"]:
            assert "spec_hash" in row and "wall_s" in row

    def test_invariant_violation_carries_the_report(self, tmp_path):
        data = minimal_manifest(
            name="impossible",
            invariants=[{"kind": "bound", "metric": "area_um2", "max": 0.0}],
        )
        scenario = Scenario.from_dict(data)
        with pytest.raises(InvariantViolation) as excinfo:
            run_scenario(scenario, runner=SweepRunner(workers=1))
        assert excinfo.value.report["results"]


# ---------------------------------------------------------------------------
# CLI subprocess smoke
# ---------------------------------------------------------------------------


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


class TestCli:
    def test_list_shows_all_scenarios(self):
        proc = run_cli("list")
        assert proc.returncode == 0, proc.stderr
        for name in ("paper-fast", "cross-topology", "megatron-tp-scaling"):
            assert name in proc.stdout
        count = len(list(SCENARIO_DIR.glob("*.json")))
        assert count >= 10
        assert f"{count} scenario(s)" in proc.stdout

    def test_validate_all_manifests(self):
        proc = run_cli("validate")
        assert proc.returncode == 0, proc.stderr
        assert "manifest(s) valid" in proc.stdout

    def test_validate_reports_broken_manifest(self, tmp_path):
        (tmp_path / "bad.json").write_text(
            json.dumps(minimal_manifest(name="bad", extra_field=1)), encoding="utf-8"
        )
        proc = run_cli("validate", "--dir", str(tmp_path))
        assert proc.returncode == 1
        assert "extra_field" in proc.stdout + proc.stderr

    def test_validate_reports_misspelled_override_field(self, tmp_path):
        suite = {
            "kind": "network_drive",
            "payload_bytes": 1048576,
            "fabrics": ["switch:8"],
            "overrides": {"network": {"link_efficency": 0.9}},
        }
        (tmp_path / "bad.json").write_text(
            json.dumps(minimal_manifest(name="bad", suites=[suite])), encoding="utf-8"
        )
        proc = run_cli("validate", "--dir", str(tmp_path))
        assert proc.returncode == 1
        output = proc.stdout + proc.stderr
        assert "suite #0 (network_drive)" in output
        assert "invalid override for section 'network'" in output
        assert "link_efficency" in output

    def test_run_writes_report(self, tmp_path):
        (tmp_path / "tiny.json").write_text(
            json.dumps(minimal_manifest()), encoding="utf-8"
        )
        out = tmp_path / "report.json"
        proc = run_cli("run", "tiny", "--dir", str(tmp_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["scenario"] == "tiny"
        assert report["results"]

    def test_run_fails_on_violated_invariant_but_writes_report(self, tmp_path):
        data = minimal_manifest(
            name="tiny",
            invariants=[{"kind": "bound", "metric": "area_um2", "max": 0.0}],
        )
        (tmp_path / "tiny.json").write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "report.json"
        proc = run_cli("run", "tiny", "--dir", str(tmp_path), "--out", str(out))
        assert proc.returncode == 1
        assert "invariant" in (proc.stdout + proc.stderr).lower()
        assert out.is_file()

    def test_unknown_scenario_is_a_clean_error(self):
        proc = run_cli("run", "no-such-scenario")
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# Property: generated manifests compile to hashable jobs
# ---------------------------------------------------------------------------

_SYSTEMS = st.lists(
    st.sampled_from(sorted(PAPER_SYSTEMS)), min_size=1, max_size=3, unique=True
)
_WORKLOADS = st.lists(
    st.sampled_from(["resnet50", "gnmt", "dlrm", "megatron"]),
    min_size=1,
    max_size=2,
    unique=True,
)
_SIZES = st.lists(
    st.sampled_from([8, 16, 32, 64, 128]), min_size=1, max_size=3, unique=True
)


@st.composite
def manifests(draw):
    suites = [
        {
            "kind": "grid",
            "systems": draw(_SYSTEMS),
            "workloads": draw(_WORKLOADS),
            "sizes": draw(_SIZES),
            "iterations": draw(st.integers(min_value=1, max_value=4)),
            "fast": draw(st.booleans()),
        }
    ]
    if draw(st.booleans()):
        suites.append(
            {
                "kind": "network_drive",
                "payload_bytes": draw(st.sampled_from([1 << 20, 8 << 20])),
                "fabrics": draw(
                    st.lists(
                        st.sampled_from(["ring:8", "switch:16", "fc:16", "torus:4x2x2"]),
                        min_size=1,
                        max_size=2,
                        unique=True,
                    )
                ),
            }
        )
    return {
        "schema": 1,
        "name": "generated",
        "description": "hypothesis-generated scenario",
        "suites": suites,
    }


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=manifests())
def test_generated_manifests_compile_to_hashable_jobs(data):
    scenario = Scenario.from_dict(data)
    assert Scenario.from_dict(scenario.to_dict()) == scenario
    jobs = scenario_jobs(scenario)
    assert jobs
    for job in jobs:
        assert isinstance(job, SimJob)
        assert isinstance(hash(job), int)
        assert job.spec_hash() == SimJob.from_json(job.to_json()).spec_hash()
        assert len(job.spec_hash()) == 64
    # Equal specs collide: a re-parsed copy hashes identically.
    reparsed_hashes = {hash(SimJob.from_json(job.to_json())) for job in jobs}
    assert reparsed_hashes == {hash(job) for job in jobs}
