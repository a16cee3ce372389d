"""Cross-backend equivalence for the new parallelism strategies, plus
spec-hash backward-compatibility pins for the 1.3.0 → 1.4.0 schema change.

The ``zero`` and ``pipeline`` strategies reroute traffic through different
collective mixes (reduce-scatter/all-gather, point-to-point sends), so they
must be checked against all three network backends: the symmetric analytical
model, the hybrid model and the fully detailed per-message model must agree
within the same 5% validation bound the backend-validation experiment pins
for the native strategies.

The hash pins hold the other direction of the contract: adding the
``parallelism`` field to :class:`SimJob` must not move a single pre-existing
spec hash, because cache entries and published reports key on them.  The
literal hashes below were captured on the 1.3.0 tree *before* the field
existed; ``to_dict`` omits ``parallelism`` when unset precisely so these stay
byte-identical.
"""

from __future__ import annotations

import pytest

from repro.runner import SimJob
from repro.runner.job import area_power_job, network_drive_job, training_job
from repro.units import KB, MB

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
    job = SimJob(
        system="ace",
        workload=workload,
        num_npus=npus,
        fabric=fabric,
        iterations=1,
        backend=backend,
        parallelism=parallelism,
    )
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


class TestLegacySpecHashPins:
    """Literal 1.3.0 hashes captured before the ``parallelism`` field existed."""

    LEGACY_SALT = "1.3.0"

    def test_training_default_job(self):
        job = training_job(
            system="ace",
            workload="resnet50",
            num_npus=16,
            iterations=1,
            chunk_bytes=1 * MB,
        )
        assert job.to_json() == (
            '{"algorithm":"auto","chunk_bytes":1048576,"fabric":null,'
            '"iterations":1,"kind":"training","num_npus":16,"op":"all_reduce",'
            '"overlap_embedding":false,"overrides":{},"payload_bytes":null,'
            '"system":"ace","topology":null,"workload":"resnet50"}'
        )
        assert job.spec_hash(self.LEGACY_SALT) == (
            "690371a6ddc58f627c473f9ce1afe68f1d2cd3c137ef5de19bebe1550db0e453"
        )

    def test_training_backend_job(self):
        job = training_job(
            system="ideal", workload="gnmt", num_npus=32,
            backend="detailed", algorithm="ring",
        )
        assert job.spec_hash(self.LEGACY_SALT) == (
            "965f9a7f297fe5373436c2842de988d0779fcfc98549b0091c2ff1eed780851b"
        )

    def test_network_drive_job(self):
        job = network_drive_job(
            system="baseline_comm_opt",
            payload_bytes=4 * MB,
            topology=(2, 2, 2),
            chunk_bytes=256 * KB,
        )
        assert job.spec_hash(self.LEGACY_SALT) == (
            "26ac6933669a751a9c5847e17cdf24347c3fdf92cfd6201b1dbd4dd3d8afd15c"
        )

    def test_area_power_job(self):
        assert area_power_job().spec_hash(self.LEGACY_SALT) == (
            "d4b410984396fef1bdd7d27c127c03b54a45aa9a3ac56a4735ef9b2f5cf8891d"
        )

    def test_training_overlap_job(self):
        job = training_job(
            system="ace", workload="dlrm", fabric="switch:64",
            overlap_embedding=True,
        )
        assert job.spec_hash(self.LEGACY_SALT) == (
            "38c1ca12c92d28e134a4162a059b95916b7bf4fbcef8e4d1c3385e8ca213d14b"
        )


class TestParallelismSpecHashing:
    def test_to_dict_omits_unset_parallelism(self):
        job = SimJob(workload="resnet50", num_npus=16)
        assert "parallelism" not in job.to_dict()

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
