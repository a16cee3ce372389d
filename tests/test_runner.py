"""The sweep-runner subsystem: determinism, caching, and error capture.

The headline guarantees under test:

* parallel (2+ workers) and serial execution of the same job batch produce
  bit-identical results,
* a repeated sweep is served entirely from the cache (hit/miss counters),
* corrupted on-disk cache entries are detected, dropped, and re-simulated,
* one failing cell never aborts the rest of the sweep.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.runner import (
    JobOutcome,
    ResultCache,
    SimJob,
    SweepRunner,
    area_power_job,
    decode_result,
    encode_result,
    network_drive_job,
    trace_job,
    training_job,
)
from repro.training.results import TrainingResult
from repro.units import KB, MB


def small_batch():
    """A cheap but representative batch: two training cells + one drive."""
    return [
        training_job("ace", "resnet50", num_npus=16, iterations=1, chunk_bytes=MB),
        training_job("ideal", "resnet50", num_npus=16, iterations=1, chunk_bytes=MB),
        network_drive_job(
            "baseline_comm_opt", 4 * MB, topology=(2, 2, 2), chunk_bytes=256 * KB
        ),
    ]


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_parallel_matches_serial_bit_identically(self):
        jobs = small_batch()
        serial = SweepRunner(workers=1).run(jobs)
        parallel = SweepRunner(workers=2).run(jobs)
        assert all(o.ok for o in serial + parallel)
        for s, p in zip(serial, parallel):
            # Encoded form compares every float field exactly.
            assert encode_result(s.value) == encode_result(p.value)

    def test_parallel_results_equal_direct_execution(self):
        jobs = small_batch()
        parallel = SweepRunner(workers=2).run_values(jobs)
        for job, value in zip(jobs, parallel):
            assert encode_result(value) == encode_result(job.execute())

    def test_cached_rerun_matches_fresh_run(self):
        jobs = small_batch()
        runner = SweepRunner(workers=2, cache=ResultCache())
        first = runner.run_values(jobs)
        second = runner.run_values(jobs)
        for a, b in zip(first, second):
            assert encode_result(a) == encode_result(b)

    def test_outcomes_preserve_input_order(self):
        jobs = list(reversed(small_batch()))
        outcomes = SweepRunner(workers=2).run(jobs)
        assert [o.job for o in outcomes] == jobs


# ---------------------------------------------------------------------------
# Result serialization
# ---------------------------------------------------------------------------


class TestSerialization:
    def test_training_result_roundtrip_is_equal(self):
        result = small_batch()[0].execute()
        assert isinstance(result, TrainingResult)
        clone = decode_result(encode_result(result))
        assert clone == result
        # Series tuples survive as tuples.
        assert clone.compute_utilization_series == result.compute_utilization_series

    def test_json_rows_roundtrip_and_are_copied(self):
        rows = [{"component": "ALU", "area_um2": 1.5}]
        payload = encode_result(rows)
        clone = decode_result(payload)
        assert clone == rows
        clone[0]["area_um2"] = 99.0
        assert decode_result(payload) == rows  # cached payload not aliased


# ---------------------------------------------------------------------------
# Caching
# ---------------------------------------------------------------------------


class TestCache:
    def test_memory_cache_hit_and_miss_counters(self):
        jobs = small_batch()
        cache = ResultCache()
        runner = SweepRunner(workers=1, cache=cache)
        runner.run(jobs)
        assert cache.misses == len(jobs)
        assert cache.hits == 0
        runner.run(jobs)
        # Second run of the same sweep is served >= 90% (here: 100%) from cache.
        assert cache.hits == len(jobs)
        assert cache.misses == len(jobs)
        assert runner.stats.executed == len(jobs)

    def test_disk_cache_survives_across_runners(self, tmp_path):
        jobs = small_batch()
        first = SweepRunner(workers=1, cache=ResultCache(tmp_path))
        values = first.run_values(jobs)
        second = SweepRunner(workers=1, cache=ResultCache(tmp_path))
        outcomes = second.run(jobs)
        assert all(o.from_cache for o in outcomes)
        assert second.stats.executed == 0
        for a, b in zip(values, outcomes):
            assert encode_result(a) == encode_result(b.value)

    def test_overlapping_sweeps_share_cells(self):
        cache = ResultCache()
        runner = SweepRunner(workers=1, cache=cache)
        runner.run(small_batch())
        # A different figure's sweep containing two already-simulated cells.
        overlapping = small_batch()[:2] + [
            training_job("ace", "resnet50", num_npus=16, iterations=2, chunk_bytes=MB)
        ]
        outcomes = runner.run(overlapping)
        assert [o.from_cache for o in outcomes] == [True, True, False]

    def test_corrupted_cache_entry_is_recovered(self, tmp_path):
        jobs = small_batch()
        SweepRunner(workers=1, cache=ResultCache(tmp_path)).run_values(jobs)
        entries = sorted(tmp_path.glob("??/*.json"))
        assert len(entries) == len(jobs)
        entries[0].write_text("{ not json", encoding="utf-8")

        cache = ResultCache(tmp_path)
        runner = SweepRunner(workers=1, cache=cache)
        outcomes = runner.run(jobs)
        assert all(o.ok for o in outcomes)
        assert cache.corrupted == 1
        assert runner.stats.executed == 1  # only the corrupted cell re-simulated
        # The repaired entry is valid again: a third run is all hits.
        repaired = ResultCache(tmp_path)
        assert all(o.from_cache for o in SweepRunner(cache=repaired).run(jobs))

    def test_truncated_and_mismatched_entries_are_misses(self, tmp_path):
        job = area_power_job()
        cache = ResultCache(tmp_path)
        SweepRunner(workers=1, cache=cache).run_one(job)
        key = cache.key_for(job)
        path = tmp_path / key[:2] / f"{key}.json"
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["job"]["system"] = "tampered"
        path.write_text(json.dumps(entry), encoding="utf-8")
        fresh = ResultCache(tmp_path)
        assert fresh.lookup(job) is None
        assert fresh.corrupted == 1
        assert not path.exists()

    def test_version_salt_invalidates_entries(self, tmp_path):
        job = area_power_job()
        SweepRunner(workers=1, cache=ResultCache(tmp_path, version="v1")).run_one(job)
        other = ResultCache(tmp_path, version="v2")
        assert other.lookup(job) is None
        assert job.spec_hash("v1") != job.spec_hash("v2")

    def test_prune_removes_stale_version_entries(self, tmp_path):
        job = area_power_job()
        SweepRunner(workers=1, cache=ResultCache(tmp_path, version="v1")).run_one(job)
        current = ResultCache(tmp_path, version="v2")
        SweepRunner(workers=1, cache=current).run_one(job)
        unreadable = tmp_path / "00" / ("0" * 64 + ".json")
        unreadable.parent.mkdir(exist_ok=True)
        unreadable.write_text("{ not json", encoding="utf-8")
        assert len(list(tmp_path.glob("**/*.json"))) == 3
        # The v1 entry and the unreadable file go; the v2 entry stays usable.
        assert current.prune() == 2
        key = job.spec_hash("v2")
        remaining = list(tmp_path.glob("**/*.json"))
        assert remaining == [tmp_path / key[:2] / f"{key}.json"]
        fresh = ResultCache(tmp_path, version="v2")
        assert fresh.lookup(job) is not None

    def test_prune_is_a_noop_for_memory_caches(self):
        assert ResultCache().prune() == 0

    def test_mutating_a_cached_result_does_not_poison_the_cache(self):
        job = small_batch()[0]
        runner = SweepRunner(workers=1, cache=ResultCache())
        first = runner.run_one(job)
        first.extra["poison"] = 1.0
        first.iteration_breakdowns.clear()
        second = runner.run_one(job)
        assert "poison" not in second.extra
        assert second.iteration_breakdowns

    def test_duplicate_jobs_simulated_once(self):
        job = area_power_job()
        runner = SweepRunner(workers=1)
        outcomes = runner.run([job, job, job])
        assert all(o.ok for o in outcomes)
        assert runner.stats.executed == 1
        assert runner.stats.deduplicated == 2


# ---------------------------------------------------------------------------
# Figure-sweep acceptance: parallel == serial, and re-runs hit the cache
# ---------------------------------------------------------------------------


class TestFigureSweep:
    def test_parallel_figure_sweep_matches_serial_and_rerun_hits_cache(self):
        from repro.experiments.common import run_grid

        kwargs = dict(
            systems=("ace", "ideal"), workloads=("resnet50",), sizes=(16, 64), fast=True
        )
        serial = run_grid(runner=SweepRunner(workers=1), **kwargs)

        cache = ResultCache()
        parallel_runner = SweepRunner(workers=2, cache=cache)
        parallel = run_grid(runner=parallel_runner, **kwargs)
        assert len(serial) == len(parallel) == 4
        for s, p in zip(serial, parallel):
            assert encode_result(s) == encode_result(p)

        hits_before = cache.hits
        rerun = run_grid(runner=parallel_runner, **kwargs)
        hit_rate = (cache.hits - hits_before) / len(rerun)
        assert hit_rate >= 0.9  # second run of the same sweep is served from cache
        for p, r in zip(parallel, rerun):
            assert encode_result(p) == encode_result(r)


# ---------------------------------------------------------------------------
# Error capture
# ---------------------------------------------------------------------------


class TestErrorCapture:
    def test_failing_job_does_not_abort_the_sweep(self):
        jobs = [
            area_power_job(),
            trace_job("ace", "no_such_trace", num_npus=16, iterations=1),
            network_drive_job("ideal", 4 * MB, topology=(2, 2, 2), chunk_bytes=MB),
        ]
        runner = SweepRunner(workers=2)
        outcomes = runner.run(jobs)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "no_such_trace" in outcomes[1].error
        assert runner.stats.errors == 1

    def test_run_values_raises_with_context(self):
        bad = trace_job("ace", "no_such_trace", num_npus=16, iterations=1)
        with pytest.raises(SimulationError, match="no_such_trace"):
            SweepRunner(workers=1).run_values([bad])

    def test_errors_are_not_cached(self):
        cache = ResultCache()
        runner = SweepRunner(workers=1, cache=cache)
        bad = trace_job("ace", "no_such_trace", num_npus=16, iterations=1)
        runner.run([bad])
        runner.run([bad])
        assert cache.hits == 0
        assert runner.stats.executed == 2

    def test_non_job_input_is_rejected(self):
        with pytest.raises(SimulationError, match="SimJob"):
            SweepRunner().run(["not a job"])


# ---------------------------------------------------------------------------
# SimJob spec validation
# ---------------------------------------------------------------------------


class TestSimJobValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="job kind"):
            SimJob(kind="banana")

    def test_training_requires_workload_and_size(self):
        with pytest.raises(ConfigurationError, match="workload"):
            SimJob(kind="training", num_npus=16, workload=None)
        with pytest.raises(ConfigurationError, match="num_npus"):
            SimJob(kind="training", workload="resnet50")

    def test_network_drive_requires_payload(self):
        with pytest.raises(ConfigurationError, match="payload_bytes"):
            SimJob(kind="network_drive", num_npus=16)

    @pytest.mark.parametrize("kind", ["training", "network_drive"])
    @pytest.mark.parametrize("num_npus", [12, 3, 0, -8])
    def test_size_without_a_canonical_torus_rejected(self, kind, num_npus):
        # Each kind gets only the field it reads: the other would be rejected.
        spec = {"workload": "resnet50"} if kind == "training" else {"payload_bytes": 1024}
        with pytest.raises(ConfigurationError, match=f"no canonical torus shape for {num_npus}"):
            SimJob(kind=kind, num_npus=num_npus, **spec)

    def test_fabric_or_topology_sets_the_size_without_num_npus(self):
        # A fabric or a torus shape needs no canonical torus for its size,
        # and a num_npus beside it would be ignored: it is rejected.
        assert SimJob(workload="resnet50", fabric="switch:12").fabric == "switch:12"
        assert SimJob(workload="resnet50", topology=(3, 2, 2)).topology == (3, 2, 2)
        for beside in ({"fabric": "switch:12"}, {"topology": (3, 2, 2)}):
            with pytest.raises(ConfigurationError, match="num_npus is ignored") as info:
                SimJob(workload="resnet50", num_npus=12, **beside)
            assert info.value.field == "num_npus"

    def test_unknown_override_section_rejected(self):
        with pytest.raises(ConfigurationError, match="override section"):
            SimJob(workload="resnet50", num_npus=16, overrides={"warp_drive": {}})

    def test_unknown_override_field_fails_at_build(self):
        # build_system runs at construction, so the job is never created.
        with pytest.raises(ConfigurationError, match="not_a_field"):
            SimJob(workload="resnet50", num_npus=16, overrides={"ace": {"not_a_field": 1}})

    @pytest.mark.parametrize(
        "spec,match",
        [
            ({"system": "nope"}, "unknown system"),
            ({"overrides": {"network": {"link_efficency": 0.9}}}, "'network'.*link_efficency"),
            ({"overrides": {"network": {"link_efficiency": 2.0}}}, "link_efficiency must be in"),
            ({"parallelism": "pipeline:0x4"}, "pipeline"),
            ({"kind": "area_power", "overrides": {"ace": {"nope": 1}}}, "'ace'.*nope"),
        ],
    )
    def test_bad_system_spec_fails_at_construction(self, spec, match):
        """Presets, override fields and values fail at submission, not in a worker."""
        if spec.get("kind") != "area_power":
            spec = {"workload": "resnet50", "num_npus": 16, **spec}
        with pytest.raises(ConfigurationError, match=match):
            SimJob(**spec)

    @pytest.mark.parametrize(
        "spelling,value",
        [
            ("collective_algorithm", "ring"),
            ("network_backend", "detailed"),
            ("compute_backend", "execution-unit"),
            ("parallelism", "zero"),
        ],
    )
    def test_removed_override_spellings_are_rejected(self, spelling, value):
        """Each model knob has one job-level spelling: the SimJob field."""
        with pytest.raises(ConfigurationError, match=f"unknown override section {spelling!r}"):
            SimJob(workload="resnet50", num_npus=16, overrides={spelling: value})

    def test_overrides_reach_the_system(self):
        job = SimJob(
            workload="resnet50",
            num_npus=16,
            overrides={
                "ace": {"sram_bytes": 2 * MB},
                "collective_scheduling": "fifo",
            },
        )
        system = job.build_system()
        assert system.ace.sram_bytes == 2 * MB
        assert system.collective_scheduling == "fifo"

    def test_ace_memory_bandwidth_override_matches_make_system(self):
        from repro.config.presets import make_system
        from repro.config.system import AceConfig

        job = SimJob(
            system="ace", workload="resnet50", num_npus=16,
            overrides={"ace": {"memory_bandwidth_gbps": 256.0}},
        )
        system = job.build_system()
        assert system == make_system("ace", ace=AceConfig(memory_bandwidth_gbps=256.0))
        # ACE's only HBM knob is its slice; a policy pin is rejected, naming its field.
        with pytest.raises(ConfigurationError) as info:
            SimJob(
                system="ace", workload="resnet50", num_npus=16,
                overrides={
                    "ace": {"memory_bandwidth_gbps": 256.0},
                    "policy": {"comm_memory_bandwidth_gbps": 64.0},
                },
            )
        assert info.value.field == "policy.comm_memory_bandwidth_gbps"

    def test_json_results_normalise_tuples_like_a_disk_roundtrip(self):
        payload = encode_result({"rows": [(1, 2.5), (3, 4.5)]})
        assert payload == json.loads(json.dumps(payload))
        assert decode_result(payload) == {"rows": [[1, 2.5], [3, 4.5]]}

    def test_num_npus_beside_topology_rejected(self):
        assert network_drive_job("ideal", MB, topology=(2, 2, 2)).build_topology().num_nodes == 8
        with pytest.raises(ConfigurationError, match=r"beside topology=\(2, 2, 2\)") as info:
            network_drive_job("ideal", MB, num_npus=16, topology=(2, 2, 2))
        assert info.value.field == "num_npus"

    def test_outcome_ok_property(self):
        assert JobOutcome(job=area_power_job()).ok
        assert not JobOutcome(job=area_power_job(), error="boom").ok


#: One job of each shape, with its literal canonical JSON and its spec hash
#: under the ``1.7.0`` salt.  The canonical JSON lists every SimJob field.
CANONICAL_PINS = [
    (
        training_job(
            "ideal", "gnmt", num_npus=32, backend="detailed", algorithm="ring",
            parallelism="zero", compute="execution-unit",
        ),
        '{"algorithm":"ring","backend":"detailed","chunk_bytes":null,'
        '"compute":"execution-unit","cost_table":null,"fabric":null,"iterations":2,'
        '"kind":"training","num_npus":32,"op":"all_reduce","overlap_embedding":false,'
        '"overrides":{},"parallelism":"zero","payload_bytes":null,"system":"ideal",'
        '"topology":null,"trace":null,"workload":"gnmt"}',
        "2c7fd49890c2b41475db8cc23ed42968ba8830559fdd8fc42ceb5ea07979a317",
    ),
    (
        trace_job("ace", "dlrm-micro", num_npus=8, cost_table="a100"),
        '{"algorithm":"auto","backend":null,"chunk_bytes":null,"compute":null,'
        '"cost_table":"a100","fabric":null,"iterations":2,"kind":"training",'
        '"num_npus":8,"op":"all_reduce","overlap_embedding":false,"overrides":{},'
        '"parallelism":null,"payload_bytes":null,"system":"ace","topology":null,'
        '"trace":"dlrm-micro","workload":null}',
        "7178c31979b792cdc91189382386f555a0ee8b23e681eea41216cf14b69c9a09",
    ),
    (
        network_drive_job(
            "baseline_comm_opt", 4 * MB, topology=(2, 2, 2), chunk_bytes=256 * KB
        ),
        '{"algorithm":"auto","backend":null,"chunk_bytes":262144,"compute":null,'
        '"cost_table":null,"fabric":null,"iterations":2,"kind":"network_drive",'
        '"num_npus":null,"op":"all_reduce","overlap_embedding":false,"overrides":{},'
        '"parallelism":null,"payload_bytes":4194304,"system":"baseline_comm_opt",'
        '"topology":[2,2,2],"trace":null,"workload":null}',
        "d47faa54baf0fe79b97223e0ad9d1936cef27111368ef44f43380c2215decc90",
    ),
    (
        area_power_job(),
        '{"algorithm":"auto","backend":null,"chunk_bytes":null,"compute":null,'
        '"cost_table":null,"fabric":null,"iterations":2,"kind":"area_power",'
        '"num_npus":null,"op":"all_reduce","overlap_embedding":false,"overrides":{},'
        '"parallelism":null,"payload_bytes":null,"system":"ace","topology":null,'
        '"trace":null,"workload":null}',
        "ba8d5ebc9f8acd664d116ee5f3440665baf13e31b04671f50ec995e0b54bec8c",
    ),
]


@pytest.mark.parametrize("job,canonical,digest", CANONICAL_PINS)
def test_canonical_json_and_spec_hash_are_pinned(job, canonical, digest):
    assert job.to_json() == canonical
    assert job.spec_hash(version="1.7.0") == digest
    assert SimJob.from_json(canonical) == job


class TestWorkerParsing:
    """REPRO_WORKERS-style worker counts parse helpfully or fail helpfully."""

    @pytest.mark.parametrize("value, expected", [(4, 4), ("4", 4), (0, 1)])
    def test_valid_counts(self, value, expected):
        assert SweepRunner(workers=value).workers == expected

    def test_auto_and_none_use_cpu_count(self):
        assert SweepRunner(workers="auto").workers >= 1
        assert SweepRunner(workers=None).workers >= 1

    def test_garbage_raises_value_error_naming_the_env_var(self):
        # A typo'd REPRO_WORKERS must raise a helpful ValueError, not
        # surface int()'s bare traceback.
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            SweepRunner(workers="bananas")

    def test_garbage_is_also_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(workers="1.5ish")

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SweepRunner(workers=-2)

    def test_default_runner_env_parsing(self, monkeypatch):
        from repro.runner import pool

        monkeypatch.setenv(pool.WORKERS_ENV, "not-a-number")
        monkeypatch.setattr(pool, "_default_runner", None)
        with pytest.raises(ValueError, match=pool.WORKERS_ENV):
            pool.default_runner()


# ---------------------------------------------------------------------------
# Persistent pool reuse
# ---------------------------------------------------------------------------


class TestPersistentPool:
    """The worker pool outlives one run() call and is reused across batches."""

    def test_pool_is_reused_across_runs(self):
        with SweepRunner(workers=2) as runner:
            runner.run_values(small_batch())
            first_pool = runner._pool
            assert first_pool is not None
            runner.run_values(
                [network_drive_job("ace", 2 * MB, topology=(2, 2, 2))]
            )
            assert runner._pool is first_pool
            assert runner.stats.pool_starts == 1

    def test_close_releases_and_run_recreates(self):
        runner = SweepRunner(workers=2)
        runner.run_values(small_batch())
        runner.close()
        assert runner._pool is None
        runner.close()  # idempotent
        runner.run_values(small_batch())
        assert runner._pool is not None
        assert runner.stats.pool_starts == 2
        runner.close()

    def test_context_manager_closes_the_pool(self):
        with SweepRunner(workers=2) as runner:
            runner.run_values(small_batch())
            assert runner._pool is not None
        assert runner._pool is None

    def test_serial_runner_never_builds_a_pool(self):
        runner = SweepRunner(workers=1)
        runner.run_values(small_batch())
        assert runner._pool is None
        assert runner.stats.pool_starts == 0

    def test_single_job_runs_inline_until_a_pool_is_warm(self):
        runner = SweepRunner(workers=2)
        # One job, no pool yet: not worth spawning workers.
        runner.run_values([network_drive_job("ace", MB, topology=(2, 2, 2))])
        assert runner._pool is None
        # A multi-job batch warms the pool; later single jobs then use it.
        runner.run_values(small_batch())
        assert runner._pool is not None
        runner.run_values([network_drive_job("ace", 3 * MB, topology=(2, 2, 2))])
        assert runner.stats.pool_starts == 1
        runner.close()


class TestFabricAndAlgorithmKnobs:
    """The cross-topology job fields: fabric specs and algorithm pinning."""

    def test_fabric_spec_builds_the_requested_topology(self):
        from repro.network.topology import SwitchTopology

        job = network_drive_job("ace", MB, fabric="switch:16")
        assert isinstance(job.build_topology(), SwitchTopology)

    def test_num_npus_or_topology_beside_fabric_rejected(self):
        assert network_drive_job("ace", MB, fabric="ring:8").build_topology().num_nodes == 8
        for name, value in (("num_npus", 64), ("topology", (2, 2, 2))):
            with pytest.raises(ConfigurationError, match="beside fabric='ring:8'") as info:
                network_drive_job("ace", MB, fabric="ring:8", **{name: value})
            assert info.value.field == name

    def test_invalid_fabric_spec_fails_at_submission(self):
        with pytest.raises(ConfigurationError):
            network_drive_job("ace", MB, fabric="mesh:4x4")

    def test_unknown_algorithm_fails_at_submission(self):
        with pytest.raises(ConfigurationError, match="algorithm"):
            network_drive_job("ace", MB, num_npus=16, algorithm="bruck")

    def test_algorithm_reaches_the_system_config(self):
        job = network_drive_job("ace", MB, num_npus=16, algorithm="ring")
        assert job.build_system().collective_algorithm == "ring"

    def test_algorithm_roundtrips_through_json(self):
        job = network_drive_job("ace", MB, fabric="fc:16", algorithm="tree")
        rebuilt = SimJob.from_json(job.to_json())
        assert rebuilt == job
        assert rebuilt.spec_hash() == job.spec_hash()

    def test_conflicting_algorithm_and_override_rejected(self):
        # ``algorithm`` is the only job-level spelling, agreeing or not.
        for value in ("tree", "ring"):
            with pytest.raises(ConfigurationError, match="unknown override section"):
                network_drive_job(
                    "ace", MB, num_npus=16, algorithm="ring",
                    overrides={"collective_algorithm": value},
                )

    def test_distinct_algorithms_hash_differently(self):
        ring = network_drive_job("ace", MB, fabric="switch:16", algorithm="ring")
        tree = network_drive_job("ace", MB, fabric="switch:16", algorithm="tree")
        assert ring.spec_hash() != tree.spec_hash()

    def test_switch_drive_executes(self):
        result = SweepRunner(workers=1).run_one(
            network_drive_job("ace", MB, fabric="switch:8", chunk_bytes=256 * KB)
        )
        assert result.duration_ns > 0

    def test_pinned_all_reduce_algorithm_does_not_break_all_to_all_workloads(self):
        # DLRM issues all_to_all as well; pinning an all-reduce algorithm
        # must scope to the ops it implements, not fail the simulation.
        result = SweepRunner(workers=1).run_one(
            training_job(
                "ace", "dlrm", num_npus=16, algorithm="hierarchical",
                iterations=1, chunk_bytes=MB,
            )
        )
        assert result.iteration_time_us > 0

    def test_grid_jobs_rejects_fabric_with_multiple_sizes(self):
        from repro.experiments.common import grid_jobs

        with pytest.raises(ConfigurationError, match="single-entry"):
            grid_jobs(sizes=(16, 64), fabric="switch:16")
        jobs = grid_jobs(
            systems=("ace",), workloads=("resnet50",), sizes=(16,),
            fabric="switch:16",
        )
        assert len(jobs) == 1 and jobs[0].fabric == "switch:16"
