"""Cross-backend equivalence for the ``zero`` and ``pipeline`` strategies,
plus the ``parallelism`` field's place in the spec hash.

The ``zero`` and ``pipeline`` strategies reroute traffic through different
collective mixes (reduce-scatter/all-gather, point-to-point sends), so they
must be checked against all three network backends: the symmetric analytical
model, the hybrid model and the fully detailed per-message model must agree
within the same 5% validation bound the backend-validation experiment pins
for the native strategies.
"""

from __future__ import annotations

import pytest

from repro.runner import SimJob

#: Validation bound shared with run_model_agreement / the paper's
#: model-validation claim (Sec. VI-A): backends agree within 5%.
BACKEND_REL_BOUND = 0.05

#: (parallelism, workload, npus, fabric) cells small enough for the detailed
#: backend, covering both new strategies on both paper torus shapes.
PARALLELISM_CELLS = (
    ("zero", "resnet50", 16, "torus:4x2x2"),
    ("zero", "gnmt", 32, "torus:4x4x2"),
    ("pipeline:4x8", "resnet50", 16, "torus:4x2x2"),
    ("pipeline:4x8", "gnmt", 32, "torus:4x4x2"),
)


def _run(backend, parallelism, workload, npus, fabric):
    # The fabric fixes the size; a num_npus beside it would be rejected.
    job = SimJob(
        system="ace",
        workload=workload,
        fabric=fabric,
        iterations=1,
        backend=backend,
        parallelism=parallelism,
    )
    assert job.build_topology().num_nodes == npus
    return job.execute()


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("parallelism,workload,npus,fabric", PARALLELISM_CELLS)
    def test_backends_agree_within_validation_bound(
        self, parallelism, workload, npus, fabric
    ):
        detailed = _run("detailed", parallelism, workload, npus, fabric)
        assert detailed.iteration_time_us > 0
        for backend in ("symmetric", "hybrid"):
            result = _run(backend, parallelism, workload, npus, fabric)
            rel = (
                abs(result.iteration_time_us - detailed.iteration_time_us)
                / detailed.iteration_time_us
            )
            assert rel <= BACKEND_REL_BOUND, (
                f"{backend} vs detailed diverge by {rel:.3%} on "
                f"{parallelism}/{workload}@{npus}"
            )
            if parallelism.startswith("pipeline"):
                # The bubble is a scheduling property, not a network one: all
                # backends must report the identical fraction.
                assert result.extra["bubble_fraction"] == pytest.approx(
                    detailed.extra["bubble_fraction"], rel=1e-12
                )

    @pytest.mark.parametrize("parallelism", ("zero", "pipeline:4x8"))
    def test_strategies_are_deterministic(self, parallelism):
        first = _run("symmetric", parallelism, "resnet50", 16, "torus:4x2x2")
        second = _run("symmetric", parallelism, "resnet50", 16, "torus:4x2x2")
        assert first.iteration_time_us == second.iteration_time_us


class TestParallelismSpecHashing:
    def test_parallelism_field_pins_the_hash(self):
        base = SimJob(workload="resnet50", num_npus=16)
        zero = SimJob(workload="resnet50", num_npus=16, parallelism="zero")
        pipe = SimJob(workload="resnet50", num_npus=16, parallelism="pipeline:4x8")
        assert base.spec_hash() != zero.spec_hash()
        assert zero.spec_hash() != pipe.spec_hash()
        assert zero.to_dict()["parallelism"] == "zero"

    def test_parallelism_round_trips_through_json(self):
        job = SimJob(workload="gnmt", num_npus=32, parallelism="pipeline:2x4")
        restored = SimJob.from_json(job.to_json())
        assert restored == job
        assert restored.spec_hash() == job.spec_hash()
