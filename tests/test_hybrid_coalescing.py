"""Coalesced hot-path equivalence, hybrid-backend bounds, and
cache/accounting bugfix tests.

The detailed backend's sole-issuer coalescing and the bandwidth resource's
batched reservation path are pure optimisations: they must not change any
simulated timing beyond the documented pipeline-fill bound.  These tests pin
that property across every planner algorithm on the paper's fabrics, bound
the hybrid backend against the fully detailed one, and cover the result-cache
maintenance fixes (``clear``/``__len__``/``stats`` must only ever see files
following the cache's naming scheme).
"""

from __future__ import annotations

import pytest

from oracles import PerMessageBackend
from repro.collectives.base import CollectiveOp
from repro.config.presets import make_system
from repro.errors import ConfigurationError, ResourceError
from repro.experiments.model_agreement import run_model_agreement
from repro.network import (
    MAX_DETAILED_NPUS,
    MAX_HYBRID_NPUS,
    make_network_backend,
    topology_from_spec,
)
from repro.network.detailed import DetailedBackend
from repro.network.hybrid import HybridBackend, most_contended_dimension
from repro.network.symmetric import SymmetricFabric
from repro.runner import ResultCache, SimJob, SweepRunner
from repro.sim.engine import Simulator
from repro.sim.resources import BandwidthResource
from repro.training.comm import CollectiveExecutor
from repro.units import MB

#: (algorithm, fabric, op) cells covering all five planner algorithms on the
#: paper's torus shapes plus the switch/fully-connected fabrics the
#: single-hop algorithms require.
ALGORITHM_CELLS = (
    ("hierarchical", "torus:4x2x2", CollectiveOp.ALL_REDUCE),
    ("hierarchical", "torus:4x4x2", CollectiveOp.ALL_REDUCE),
    ("hierarchical", "torus:4x4x4", CollectiveOp.ALL_REDUCE),
    ("ring", "torus:4x2x2", CollectiveOp.ALL_REDUCE),
    ("ring", "torus:4x4x2", CollectiveOp.ALL_REDUCE),
    ("direct", "torus:4x2x2", CollectiveOp.ALL_TO_ALL),
    ("direct", "fc:16", CollectiveOp.ALL_REDUCE),
    ("tree", "switch:16", CollectiveOp.ALL_REDUCE),
    ("halving_doubling", "switch:16", CollectiveOp.ALL_REDUCE),
    ("halving_doubling", "fc:16", CollectiveOp.ALL_REDUCE),
)

#: Documented divergence bound for the coalesced path under multi-chunk
#: concurrency: one step's serialization per transfer (pipeline fill),
#: comfortably under a few percent on these payloads.
PIPELINE_FILL_REL_BOUND = 0.03


def _drive_collective(algorithm, fabric_spec, op, chunk_bytes, backend_class):
    """Completion time of one collective on a fresh ``backend_class`` fabric."""
    topology = topology_from_spec(fabric_spec)
    sim = Simulator()
    system = make_system("ace").with_overrides(collective_algorithm=algorithm)
    fabric = backend_class(topology, system.network)
    executor = CollectiveExecutor(
        sim, system, topology, fabric=fabric, chunk_bytes=chunk_bytes
    )
    handle = executor.issue(op, 8 * MB)
    sim.run()
    assert handle.completed_at is not None
    fabric.check_accounting(max(handle.completed_at, 1.0))
    return handle.completed_at


class TestCoalescingEquivalence:
    """Coalesced booking must track the per-message event path."""

    @pytest.mark.parametrize("algorithm,fabric,op", ALGORITHM_CELLS)
    def test_single_chunk_is_bit_exact(self, algorithm, fabric, op):
        """With one transfer in flight per step the coalesced path books the
        same FIFO timeline as per-message events — exactly, not just within
        tolerance."""
        coalesced = _drive_collective(algorithm, fabric, op, 8 * MB, DetailedBackend)
        reference = _drive_collective(algorithm, fabric, op, 8 * MB, PerMessageBackend)
        assert coalesced == reference

    @pytest.mark.parametrize(
        "algorithm,fabric,op",
        (
            ("hierarchical", "torus:4x4x2", CollectiveOp.ALL_REDUCE),
            ("hierarchical", "torus:4x4x4", CollectiveOp.ALL_REDUCE),
            ("ring", "torus:4x2x2", CollectiveOp.ALL_REDUCE),
            ("direct", "fc:16", CollectiveOp.ALL_REDUCE),
            ("halving_doubling", "switch:16", CollectiveOp.ALL_REDUCE),
        ),
    )
    def test_chunked_within_pipeline_fill_bound(self, algorithm, fabric, op):
        """Pipelined chunks create genuine concurrency; the coalesced path may
        diverge by at most the documented pipeline-fill bound."""
        coalesced = _drive_collective(algorithm, fabric, op, 1 * MB, DetailedBackend)
        reference = _drive_collective(algorithm, fabric, op, 1 * MB, PerMessageBackend)
        assert coalesced == pytest.approx(reference, rel=PIPELINE_FILL_REL_BOUND)


class TestReserveBatchEquivalence:
    """A batch books the timeline sequential reserve() calls book."""

    def _resource(self):
        return BandwidthResource(name="link", bandwidth_gbps=50.0, latency_ns=500.0)

    def _requests(self, count):
        # Mixed idle gaps and back-to-back pressure; earliest times
        # non-decreasing as the FIFO contract requires of callers.
        sizes = [float(1024 * (1 + (i % 7))) for i in range(count)]
        earliest = [float(200 * i if i % 3 else 150 * i) for i in range(count)]
        return sizes, earliest

    @pytest.mark.parametrize("count", range(1, 201))
    def test_batch_matches_sequential(self, count):
        sizes, earliest = self._requests(count)
        sequential = self._resource()
        expected = [sequential.reserve(s, e) for s, e in zip(sizes, earliest)]
        batched = self._resource()
        starts, finishes = batched.reserve_batch(sizes, earliest)
        # The batch replays reserve()'s arithmetic in order: bit-exact.
        assert starts == [r.start for r in expected]
        assert finishes == [r.finish for r in expected]
        assert batched.busy_time == sequential.busy_time
        assert batched.bytes_moved == sequential.bytes_moved
        # Same FIFO tail: the next request queues identically on both.
        assert batched.reserve_times(1.0, 0.0) == sequential.reserve_times(1.0, 0.0)

    def test_reserve_times_matches_reserve(self):
        by_reserve = self._resource()
        by_times = self._resource()
        for size, earliest in zip(*self._requests(16)):
            reservation = by_reserve.reserve(size, earliest)
            start, finish = by_times.reserve_times(size, earliest)
            assert (start, finish) == (reservation.start, reservation.finish)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ResourceError):
            self._resource().reserve_batch([1.0, 2.0], [0.0])

    def test_check_accounting_raises_on_overfull_horizon(self):
        resource = self._resource()
        resource.reserve(50.0 * 1000, 0.0)  # 1000 ns of serialization
        resource.check_accounting(1000.0)  # exactly full: fine
        with pytest.raises(ResourceError, match="busy"):
            resource.check_accounting(999.0)


class TestHybridBackend:
    def test_hot_dimension_is_deterministic(self):
        topology = topology_from_spec("torus:4x4x2")
        network = make_system("ace").network
        hot = most_contended_dimension(topology, network)
        assert hot in topology.active_dimensions()
        assert most_contended_dimension(topology, network) == hot
        backend = make_network_backend("hybrid", topology, network)
        assert isinstance(backend, HybridBackend)
        assert backend.hot_dimension == hot
        assert set(backend.dimensions) == set(topology.active_dimensions())

    def test_hybrid_tracks_detailed_within_validation_tolerance(self):
        """The new rung's analogue of the paper's model-validation claim:
        hybrid vs fully detailed agree within 5% on small cells."""
        rows = run_model_agreement(
            "backend",
            training_cells=(("resnet50", 8),),
            drive_cells=(
                ("torus:4x2x2", "all_reduce"),
                ("torus:4x4x2", "all_reduce"),
            ),
            runner=SweepRunner(cache=ResultCache()),
            backends=("detailed", "hybrid"),
        )
        assert len(rows) == 3
        for row in rows:
            assert float(row["time_rel_err"]) <= 0.05, row
            assert float(row["exposed_delta_frac"]) <= 0.05, row

    def test_hybrid_runs_past_the_detailed_cap(self):
        job = SimJob(
            system="ace",
            workload="resnet50",
            iterations=1,
            fabric="torus:8x16x8",
            backend="hybrid",
        )
        assert topology_from_spec("torus:8x16x8").num_nodes == 1024 > MAX_DETAILED_NPUS
        result = job.execute()
        assert result.iteration_time_us > 0

    def test_backend_caps_are_enforced(self):
        network = make_system("ace").network
        past_detailed = topology_from_spec("torus:8x16x8")
        with pytest.raises(ConfigurationError, match="hybrid"):
            make_network_backend("detailed", past_detailed, network)
        past_hybrid = topology_from_spec("torus:16x16x16")
        assert past_hybrid.num_nodes > MAX_HYBRID_NPUS
        with pytest.raises(ConfigurationError, match="infeasible"):
            make_network_backend("hybrid", past_hybrid, network)

    def test_validation_rejects_a_non_pair(self):
        with pytest.raises(ConfigurationError, match="two distinct"):
            run_model_agreement("backend", backends=("detailed",))
        with pytest.raises(ConfigurationError, match="two distinct"):
            run_model_agreement("backend", backends=("detailed", "detailed"))


class TestSpecHashPinning:
    def test_backend_field_pins_the_hash(self):
        base = SimJob(workload="resnet50", num_npus=64)
        hybrid = SimJob(workload="resnet50", num_npus=64, backend="hybrid")
        detailed = SimJob(workload="resnet50", num_npus=64, backend="detailed")
        assert base.spec_hash() != hybrid.spec_hash()
        assert hybrid.spec_hash() != detailed.spec_hash()
        assert SimJob.from_json(hybrid.to_json()) == hybrid
        assert SimJob.from_json(hybrid.to_json()).spec_hash() == hybrid.spec_hash()

    def test_version_salt_pins_the_hash(self):
        job = SimJob(workload="resnet50", num_npus=64, backend="hybrid")
        assert job.spec_hash("v1") != job.spec_hash("v2")
        assert job.spec_hash("v1") == job.spec_hash("v1")


class TestCacheMaintenance:
    def _store_one(self, cache):
        job = SimJob(workload="resnet50", num_npus=8)
        cache.store(job, {"payload": 1})
        return job

    def test_clear_spares_foreign_json(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        self._store_one(cache)
        foreign = tmp_path / "notes.json"
        foreign.write_text("{}", encoding="utf-8")
        cache.clear()
        assert foreign.exists()
        assert len(cache) == 0
        assert not any(
            len(path.stem) == 64 for path in tmp_path.glob("*.json")
        )

    def test_len_and_stats_count_only_entries(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        self._store_one(cache)
        (tmp_path / "report.json").write_text("{}", encoding="utf-8")
        assert len(cache) == 1
        stats = cache.stats
        assert stats["entries"] == 1
        assert stats["disk_entries"] == 1
        assert stats["memory_entries"] == 1

    def test_memory_cache_counts_memory_entries(self):
        cache = ResultCache()
        self._store_one(cache)
        assert len(cache) == 1
        assert cache.stats["disk_entries"] == 0
        assert cache.stats["memory_entries"] == 1


class TestAccountingCheck:
    def test_every_job_checks_fabric_accounting_once(self, monkeypatch):
        """Training and network-drive jobs assert the fabric's FIFO
        accounting after they simulate, on every backend, unasked."""
        calls = []

        def spy(cls):
            original = cls.check_accounting

            def check_accounting(self, horizon_ns):
                calls.append(type(self))
                original(self, horizon_ns)

            monkeypatch.setattr(cls, "check_accounting", check_accounting)

        for cls in (SymmetricFabric, DetailedBackend, HybridBackend):
            spy(cls)
        for backend, cls in (
            ("symmetric", SymmetricFabric),
            ("detailed", DetailedBackend),
            ("hybrid", HybridBackend),
        ):
            jobs = (
                SimJob(workload="resnet50", num_npus=16, iterations=1, backend=backend),
                SimJob(kind="network_drive", system="ace", num_npus=16,
                       payload_bytes=1 * MB, backend=backend),
            )
            for job in jobs:
                calls.clear()
                job.execute()
                assert calls.count(cls) == 1, (backend, job.kind, calls)
