"""Tests for the pluggable compute-backend layer.

Covers the registry and its typed errors, the execution-unit model's edge
cases (zero-flop kernels, the roofline ridge point, the never-faster
invariant), the measured-op inversion round trip on both backends, the
``SimJob.compute`` knob, the scenario plumbing, and the ``docs/KNOBS.md``
cross-reference that keeps the knob table in sync with the code.
"""

from __future__ import annotations

import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.compute import (
    AUTO_COMPUTE_BACKEND,
    DEFAULT_COMPUTE_AUTO_NPU_THRESHOLD,
    DEFAULT_COMPUTE_BACKEND,
    ComputeBackend,
    ExecutionUnitModel,
    KernelCost,
    NpuComputeEngine,
    RooflineModel,
    compute_backend_names,
    make_compute_backend,
    register_compute_backend,
    resolve_compute_backend_name,
    validate_compute_backend_name,
)
from repro.config.presets import make_system
from repro.config.system import ComputeConfig
from repro.errors import ConfigurationError, ScenarioError
from repro.runner import SimJob, SweepRunner, trace_job, training_job
from repro.runner.cache import ResultCache
from repro.units import KB, MB

TFLOPS = 120.0
BW_GBPS = 900.0
OVERHEAD_NS = 2_000.0


def _roofline() -> RooflineModel:
    return RooflineModel(TFLOPS, BW_GBPS, OVERHEAD_NS)


def _execution_unit(units: ComputeConfig = None) -> ExecutionUnitModel:
    return ExecutionUnitModel(TFLOPS, BW_GBPS, OVERHEAD_NS, units=units)


def _kernel(flops: float, bytes_total: float, efficiency: float = 0.85) -> KernelCost:
    return KernelCost(
        name="k",
        flops=flops,
        bytes_read=bytes_total / 2,
        bytes_written=bytes_total / 2,
        compute_efficiency=efficiency,
    )


#: A spread of kernel shapes: compute-bound, memory-bound, near-ridge, tiny.
KERNEL_GRID = (
    _kernel(5e9, 1 * MB),
    _kernel(1e7, 64 * MB),
    _kernel(1e12, 2 * MB, efficiency=1.0),
    _kernel(1e5, 1 * KB),
    _kernel(3e8, 3 * MB, efficiency=0.5),
)


class TestRegistry:
    def test_builtin_backends_are_registered(self):
        names = compute_backend_names()
        assert set(names) == {"roofline", "execution-unit"}
        assert DEFAULT_COMPUTE_BACKEND in names

    def test_unknown_name_raises_typed_error_naming_choices(self):
        with pytest.raises(ConfigurationError) as excinfo:
            validate_compute_backend_name("systolic")
        message = str(excinfo.value)
        assert "systolic" in message
        assert "roofline" in message
        assert "execution-unit" in message
        assert AUTO_COMPUTE_BACKEND in message

    def test_auto_is_reserved(self):
        with pytest.raises(ConfigurationError, match="reserved"):
            @register_compute_backend(AUTO_COMPUTE_BACKEND)
            class Bad(ComputeBackend):  # pragma: no cover - never registered
                def kernel_time_ns(self, cost):
                    return 0.0

                def invert_duration_ns(self, duration_ns):
                    return 0.0

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            @register_compute_backend("roofline")
            class Clash(ComputeBackend):  # pragma: no cover - never registered
                def kernel_time_ns(self, cost):
                    return 0.0

                def invert_duration_ns(self, duration_ns):
                    return 0.0

    def test_auto_resolution_validates_small_and_sweeps_large(self):
        threshold = DEFAULT_COMPUTE_AUTO_NPU_THRESHOLD
        assert resolve_compute_backend_name("auto", num_npus=8) == "execution-unit"
        assert resolve_compute_backend_name("auto", num_npus=threshold) == "execution-unit"
        assert resolve_compute_backend_name("auto", num_npus=threshold + 1) == "roofline"
        assert resolve_compute_backend_name("auto", num_npus=None) == "roofline"
        # Explicit names pass through regardless of size.
        assert resolve_compute_backend_name("roofline", num_npus=2) == "roofline"
        assert resolve_compute_backend_name("execution-unit", num_npus=512) == "execution-unit"

    def test_auto_threshold_override_and_validation(self):
        assert resolve_compute_backend_name("auto", num_npus=64, auto_threshold=64) == (
            "execution-unit"
        )
        with pytest.raises(ConfigurationError, match="threshold"):
            resolve_compute_backend_name("auto", num_npus=4, auto_threshold=0)

    def test_factory_builds_by_name_and_resolves_auto(self):
        roofline = make_compute_backend("roofline", TFLOPS, BW_GBPS)
        assert roofline.name == "roofline"
        auto_small = make_compute_backend("auto", TFLOPS, BW_GBPS, num_npus=8)
        assert isinstance(auto_small, ExecutionUnitModel)
        with pytest.raises(ConfigurationError, match="unknown compute backend"):
            make_compute_backend("nope", TFLOPS, BW_GBPS)


class TestRooflineBackend:
    def test_bit_identical_to_roofline_model(self):
        backend = make_compute_backend("roofline", TFLOPS, BW_GBPS, OVERHEAD_NS)
        model = _roofline()
        for cost in KERNEL_GRID:
            assert backend.kernel_time_ns(cost) == model.kernel_time_ns(cost)

    def test_inversion_round_trip(self):
        backend = make_compute_backend("roofline", TFLOPS, BW_GBPS, OVERHEAD_NS)
        for duration_ns in (2_500.0, 10_000.0, 1e6):
            flops = backend.invert_duration_ns(duration_ns)
            replay = KernelCost("replay", flops, 0.0, 0.0, compute_efficiency=1.0)
            assert backend.kernel_time_ns(replay) == pytest.approx(duration_ns, rel=1e-12)

    def test_inversion_floors_at_launch_overhead(self):
        backend = make_compute_backend("roofline", TFLOPS, BW_GBPS, OVERHEAD_NS)
        assert backend.invert_duration_ns(OVERHEAD_NS / 2) == 0.0


class TestExecutionUnitModel:
    def test_never_faster_than_roofline(self):
        """Occupancy derates and exposed fill/drain are pure additions."""
        roofline, eu = _roofline(), _execution_unit()
        for cost in KERNEL_GRID:
            assert eu.kernel_time_ns(cost) >= roofline.kernel_time_ns(cost)

    def test_zero_flop_kernel_is_pure_dma(self):
        eu = _execution_unit()
        cost = _kernel(0.0, 8 * MB)
        times = eu.unit_times_ns(cost)
        assert times["matrix"] == 0.0
        assert times["vector"] == 0.0
        assert times["scalar"] == 0.0
        dma_ns = cost.bytes_total / BW_GBPS
        assert times["dma_hidden"] + times["dma_exposed"] == pytest.approx(
            dma_ns + 2 * eu.unit_sram_bytes / BW_GBPS
        )
        assert eu.kernel_time_ns(cost) == pytest.approx(
            times["dma_hidden"] + times["dma_exposed"] + OVERHEAD_NS
        )
        assert eu.bottleneck_unit(cost) == "dma"

    def test_zero_flop_zero_byte_kernel_is_pure_overhead(self):
        eu = _execution_unit()
        cost = KernelCost("noop", 0.0, 0.0, 0.0, compute_efficiency=1.0)
        assert eu.kernel_time_ns(cost) == OVERHEAD_NS

    def test_register_file_resident_kernel_has_no_fill_drain(self):
        eu = _execution_unit()
        resident = _kernel(1e6, float(eu.register_file_bytes))
        spilled = _kernel(1e6, float(eu.register_file_bytes) + 1.0)
        assert eu.unit_times_ns(resident)["dma_exposed"] == pytest.approx(
            (1.0 - eu.dma_overlap) * resident.bytes_total / BW_GBPS
        )
        # One byte over the register file pays the SRAM fill/drain.
        assert eu.unit_times_ns(spilled)["dma_exposed"] > (
            eu.unit_times_ns(resident)["dma_exposed"]
        )

    def test_ridge_point_kernel(self):
        """At the exact roofline ridge both bounds are equal; the
        execution-unit inflation there stays within the validation budget."""
        roofline, eu = _roofline(), _execution_unit()
        bytes_total = 32 * MB
        flops = roofline.ridge_intensity() * bytes_total
        cost = _kernel(flops, bytes_total, efficiency=1.0)
        assert roofline.compute_time_ns(cost) == pytest.approx(
            roofline.memory_time_ns(cost), rel=1e-9
        )
        tr, te = roofline.kernel_time_ns(cost), eu.kernel_time_ns(cost)
        assert te >= tr
        from repro.experiments.model_agreement import KNOBS

        assert (te - tr) / tr <= KNOBS["compute"].tolerance

    def test_inversion_round_trip(self):
        eu = _execution_unit()
        for duration_ns in (3_000.0, 50_000.0, 2e6):
            flops = eu.invert_duration_ns(duration_ns)
            replay = KernelCost("replay", flops, 0.0, 0.0, compute_efficiency=1.0)
            assert eu.kernel_time_ns(replay) == pytest.approx(duration_ns, rel=1e-9)

    def test_invalid_unit_parameters_name_the_field(self):
        for field, value in (
            ("matrix_unit_fraction", 0.0),
            ("vector_unit_fraction", 1.5),
            ("scalar_unit_fraction", -0.1),
            ("unit_occupancy", 0.0),
            ("dma_overlap", 1.2),
            ("scalar_flops_fraction", -1e-3),
            ("vector_flops_per_byte", 0.0),
            ("unit_sram_bytes", 0),
            ("register_file_bytes", -1),
        ):
            units = SimpleNamespace(**{**ComputeConfig().__dict__, field: value})
            with pytest.raises(ConfigurationError, match=field):
                ExecutionUnitModel(TFLOPS, BW_GBPS, units=units)

    def test_compute_config_validates_unit_fields(self):
        with pytest.raises(ConfigurationError, match="unit_occupancy"):
            ComputeConfig(unit_occupancy=1.5)
        with pytest.raises(ConfigurationError, match="dma_overlap"):
            ComputeConfig(dma_overlap=-0.1)
        # dma_overlap of 0 (nothing hidden) is a legal, pessimal setting.
        zero_overlap = ComputeConfig(dma_overlap=0.0)
        assert zero_overlap.dma_overlap == 0.0

    def test_dma_overlap_zero_exposes_the_full_stream(self):
        eu = _execution_unit(ComputeConfig(dma_overlap=0.0))
        cost = _kernel(1e6, 8 * MB)
        times = eu.unit_times_ns(cost)
        assert times["dma_hidden"] == 0.0
        assert times["dma_exposed"] >= cost.bytes_total / BW_GBPS


class TestSystemThreading:
    def test_make_system_compute_keyword(self):
        assert make_system("ace").compute_backend == DEFAULT_COMPUTE_BACKEND
        system = make_system("ace").with_overrides(compute_backend="execution-unit")
        assert system.compute_backend == "execution-unit"
        assert make_system("ace").with_overrides(compute_backend="auto").compute_backend == "auto"

    def test_system_config_rejects_empty_backend_name(self):
        with pytest.raises(ConfigurationError, match="compute_backend"):
            make_system("ace").with_overrides(compute_backend="")

    def test_describe_reports_the_backend(self):
        assert make_system("ace").describe()["compute_backend"] == "roofline"

    def test_engine_resolves_auto_by_platform_size(self):
        system = make_system("ace").with_overrides(compute_backend="auto")
        small = NpuComputeEngine(system, num_npus=8)
        large = NpuComputeEngine(system, num_npus=128)
        assert small.backend_name == "execution-unit"
        assert isinstance(small.backend, ExecutionUnitModel)
        assert large.backend_name == "roofline"

    def test_engine_execution_unit_prices_above_roofline(self):
        roofline_engine = NpuComputeEngine(make_system("ace"))
        eu_system = make_system("ace").with_overrides(compute_backend="execution-unit")
        eu_engine = NpuComputeEngine(eu_system)
        for cost in KERNEL_GRID:
            assert eu_engine.task_time_ns(cost) >= roofline_engine.task_time_ns(cost)


class TestSimJobCompute:
    def test_canonical_json_carries_compute_when_set(self):
        job = training_job("ace", "resnet50", num_npus=16, compute="execution-unit")
        assert '"compute":"execution-unit"' in job.to_json()
        assert SimJob.from_json(job.to_json()) == job

    def test_compute_knob_changes_the_spec_hash(self):
        plain = training_job("ace", "resnet50", num_npus=16)
        eu = training_job("ace", "resnet50", num_npus=16, compute="execution-unit")
        assert plain.spec_hash() != eu.spec_hash()

    def test_compute_is_training_only(self):
        with pytest.raises(ConfigurationError, match="training"):
            SimJob(
                kind="network_drive", system="ace", payload_bytes=1024,
                num_npus=16, compute="roofline",
            )

    def test_unknown_compute_name_rejected_at_submission(self):
        with pytest.raises(ConfigurationError, match="unknown compute backend"):
            training_job("ace", "resnet50", num_npus=16, compute="bogus")

    def test_conflicting_compute_override_rejected(self):
        # ``compute`` is the only job-level spelling of the compute backend.
        with pytest.raises(ConfigurationError, match="unknown override section 'compute_backend'"):
            training_job(
                "ace", "resnet50", num_npus=16, compute="roofline",
                overrides={"compute_backend": "execution-unit"},
            )

    def test_build_system_threads_the_shorthand(self):
        job = training_job("ace", "resnet50", num_npus=16, compute="execution-unit")
        assert job.build_system().compute_backend == "execution-unit"
        plain = training_job("ace", "resnet50", num_npus=16)
        assert plain.build_system().compute_backend == DEFAULT_COMPUTE_BACKEND

    def test_default_and_explicit_roofline_simulate_identically(self):
        """The golden guarantee: compute="roofline" is a no-op spelling."""
        runner = SweepRunner(workers=1, cache=ResultCache())
        default_job = training_job(
            "ace", "resnet50", num_npus=8, iterations=1, chunk_bytes=1024 * KB
        )
        pinned_job = training_job(
            "ace", "resnet50", num_npus=8, iterations=1, chunk_bytes=1024 * KB,
            compute="roofline",
        )
        default, pinned = runner.run_values([default_job, pinned_job])
        assert default.total_time_ns == pinned.total_time_ns
        assert default.exposed_comm_ns == pinned.exposed_comm_ns

    def test_execution_unit_job_is_slower_not_broken(self):
        runner = SweepRunner(workers=1, cache=ResultCache())
        roofline_job = training_job(
            "ace", "resnet50", num_npus=8, iterations=1, chunk_bytes=1024 * KB
        )
        eu_job = training_job(
            "ace", "resnet50", num_npus=8, iterations=1, chunk_bytes=1024 * KB,
            compute="execution-unit",
        )
        roofline, eu = runner.run_values([roofline_job, eu_job])
        assert eu.total_time_ns > roofline.total_time_ns
        from repro.experiments.model_agreement import KNOBS

        rel = (eu.total_time_ns - roofline.total_time_ns) / roofline.total_time_ns
        assert rel <= KNOBS["compute"].tolerance


class TestTraceInversion:
    def test_measured_ops_invert_the_active_backend(self):
        from repro.traces.cost import find_cost_table

        table = find_cost_table("paper-npu")
        op = {"kind": "measured", "name": "k", "duration_ns": 50_000.0}
        for backend_name in ("roofline", "execution-unit"):
            cost = table.resolve(op, "ctx", compute_backend=backend_name)
            replay = table.backend(backend_name).kernel_time_ns(cost)
            assert replay == pytest.approx(50_000.0, rel=1e-9)

    def test_backends_invert_to_different_flop_counts(self):
        from repro.traces.cost import find_cost_table

        table = find_cost_table("paper-npu")
        op = {"kind": "measured", "name": "k", "duration_ns": 50_000.0}
        roofline = table.resolve(op, "ctx", compute_backend="roofline")
        eu = table.resolve(op, "ctx", compute_backend="execution-unit")
        # The execution-unit matrix rate is derated, so the same wall-clock
        # duration corresponds to fewer FLOPs.
        assert eu.flops < roofline.flops

    def test_lower_trace_binds_the_backend_for_measured_ops(self):
        """``lower_trace(compute_backend=...)`` inverts the *named* backend's
        model, so pricing the lowered kernels with that same backend
        reproduces the measured durations exactly."""
        from repro.traces import Trace, lower_trace
        from repro.traces.cost import find_cost_table

        durations = (30_000.0, 70_000.0)
        trace = Trace.from_dict(
            {
                "schema": 1,
                "name": "measured-pair",
                "description": "two measured forward kernels",
                "batch_size_per_npu": 1,
                "nodes": [
                    {
                        "id": f"l{i}.fwd",
                        "kind": "compute",
                        "phase": "forward",
                        "layer": f"l{i}",
                        "op": {
                            "kind": "measured",
                            "name": f"l{i}.fwd",
                            "duration_ns": duration,
                        },
                    }
                    for i, duration in enumerate(durations)
                ],
                "edges": [["l0.fwd", "l1.fwd"]],
            }
        )
        table = find_cost_table(None)
        for backend_name in ("roofline", "execution-unit"):
            workload = lower_trace(trace, compute_backend=backend_name)
            backend = table.backend(backend_name)
            for layer, duration in zip(workload.layers, durations):
                assert backend.kernel_time_ns(layer.forward) == pytest.approx(
                    duration, rel=1e-9
                )

    def test_trace_job_execution_unit_is_never_faster(self):
        """Architectural (tensor) trace descriptors price differently per
        backend; the never-faster invariant must hold end to end."""
        runner = SweepRunner(workers=1, cache=ResultCache())
        jobs = [
            trace_job("ace", "dlrm-micro", num_npus=8, iterations=1, compute=name)
            for name in ("roofline", "execution-unit")
        ]
        roofline, eu = runner.run_values(jobs)
        assert eu.total_time_ns >= roofline.total_time_ns


class TestComputeValidationHarness:
    def test_backend_pair_validation(self):
        from repro.experiments.model_agreement import agreement_jobs

        with pytest.raises(ConfigurationError, match="two distinct"):
            agreement_jobs("compute", backends=("roofline",))
        with pytest.raises(ConfigurationError, match="two distinct"):
            agreement_jobs("compute", backends=("roofline", "roofline"))
        with pytest.raises(ConfigurationError, match="unknown compute backend"):
            agreement_jobs("compute", backends=("roofline", "bogus"))

    def test_jobs_are_paired_per_cell(self):
        from repro.experiments.model_agreement import agreement_jobs

        jobs = agreement_jobs("compute", training_cells=(("resnet50", 8), ("dlrm", 8)))
        assert len(jobs) == 4
        assert [job.compute for job in jobs] == [
            "roofline", "execution-unit", "roofline", "execution-unit",
        ]

    def test_single_cell_run_meets_the_bound(self):
        from repro.experiments.model_agreement import (
            KNOBS,
            max_disagreement,
            run_model_agreement,
        )

        rows = run_model_agreement(
            "compute",
            training_cells=(("resnet50", 8),),
            iterations=1,
            runner=SweepRunner(workers=1, cache=ResultCache()),
        )
        assert len(rows) == 1
        assert max_disagreement(rows) <= KNOBS["compute"].tolerance
        assert min(row["slowdown_frac"] for row in rows) >= 0.0


class TestScenarioPlumbing:
    def _scenario(self, suites, invariants=()):
        from repro.scenarios.schema import Scenario

        return Scenario.from_dict(
            {
                "schema": 1,
                "name": "inline",
                "description": "inline test scenario",
                "suites": suites,
                "invariants": list(invariants),
            },
            source="inline",
        )

    def test_compute_validation_suite_compiles_to_a_figure(self):
        from repro.scenarios.loader import compile_suite

        scenario = self._scenario(
            [{
                "kind": "model_agreement",
                "knob": "compute",
                "system": "ace",
                "training_cells": [["resnet50", 8]],
                "iterations": 1,
            }]
        )
        compiled = compile_suite(scenario, 0)
        assert compiled.is_figure
        assert compiled.figure.figure.name == "model_agreement"
        assert compiled.figure.options["knob"] == "compute"
        assert compiled.figure.options["training_cells"] == [("resnet50", 8)]

    def test_training_grid_compute_key_threads_to_jobs(self):
        from repro.scenarios.loader import scenario_jobs

        scenario = self._scenario(
            [{
                "kind": "grid", "systems": ["ace"],
                "workloads": ["resnet50"], "sizes": [8],
                "computes": ["execution-unit"],
            }]
        )
        jobs = scenario_jobs(scenario)
        assert [job.compute for job in jobs] == ["execution-unit"]

    def test_sweep_computes_axis_expands(self):
        from repro.scenarios.loader import scenario_jobs

        scenario = self._scenario(
            [{
                "kind": "grid", "systems": ["ace"], "workloads": ["resnet50"],
                "sizes": [8], "computes": ["roofline", "execution-unit"],
            }]
        )
        jobs = scenario_jobs(scenario)
        assert sorted(job.compute for job in jobs) == ["execution-unit", "roofline"]

    def test_schema_rejects_non_string_compute(self):
        with pytest.raises(ScenarioError, match="compute"):
            self._scenario(
                [{
                    "kind": "grid", "workloads": ["resnet50"],
                    "sizes": [8], "computes": [5],
                }]
            )

    def test_schema_rejects_malformed_training_cells(self):
        with pytest.raises(ScenarioError, match="training_cells"):
            self._scenario(
                [{
                    "kind": "model_agreement",
                    "knob": "compute",
                    "training_cells": [["resnet50", 8, "extra"]],
                }]
            )

    def test_shipped_manifest_compiles(self):
        from repro.scenarios.loader import compile_scenario, find_scenario

        scenario = find_scenario(
            "compute-validation", Path(__file__).resolve().parents[1] / "scenarios"
        )
        compiled = compile_scenario(scenario)
        assert len(compiled) == 1
        assert compiled[0].is_figure
        metrics = {invariant.metric for invariant in scenario.invariants}
        assert {"time_rel_err", "exposed_delta_frac", "slowdown_frac"} <= metrics


class TestKnobsDocCrossReference:
    """docs/KNOBS.md is the authoritative knob table; this test keeps it from
    rotting by requiring every code-level knob name to appear in it."""

    @pytest.fixture(scope="class")
    def knob_tokens(self):
        doc = Path(__file__).resolve().parents[1] / "docs" / "KNOBS.md"
        assert doc.is_file(), "docs/KNOBS.md is missing"
        return set(re.findall(r"`([^`]+)`", doc.read_text(encoding="utf-8")))

    def test_every_simjob_field_is_documented(self, knob_tokens):
        from dataclasses import fields as dataclass_fields

        for spec_field in dataclass_fields(SimJob):
            assert spec_field.name in knob_tokens, (
                f"SimJob field {spec_field.name!r} is not documented in docs/KNOBS.md"
            )

    def test_every_config_scalar_override_is_documented(self, knob_tokens):
        from repro.runner.job import _CONFIG_SCALARS, _CONFIG_SECTIONS

        for name in _CONFIG_SCALARS + _CONFIG_SECTIONS:
            assert name in knob_tokens, (
                f"override knob {name!r} is not documented in docs/KNOBS.md"
            )

    def test_every_backend_name_is_documented(self, knob_tokens):
        from repro.network.backend import backend_names

        for name in compute_backend_names() + backend_names() + ("auto",):
            assert name in knob_tokens, (
                f"backend name {name!r} is not documented in docs/KNOBS.md"
            )

    def test_every_suite_kind_is_documented(self, knob_tokens):
        from repro.scenarios.schema import SUITE_KINDS

        for kind in SUITE_KINDS:
            assert kind in knob_tokens, (
                f"suite kind {kind!r} is not documented in docs/KNOBS.md"
            )

    def test_runtime_environment_variables_are_documented(self, knob_tokens):
        for name in (
            "REPRO_WORKERS",
            "REPRO_CACHE_DIR",
            "REPRO_DAEMON",
            "REPRO_DAEMON_HOST",
            "REPRO_DAEMON_PORT",
            "REPRO_SCENARIOS_DIR",
            "REPRO_TRACES_DIR",
        ):
            assert name in knob_tokens, (
                f"environment variable {name!r} is not documented in docs/KNOBS.md"
            )
