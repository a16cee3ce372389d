"""Network-backend registry, protocol, and cross-backend equivalence tests."""

from __future__ import annotations

import pytest

from repro.analysis.bandwidth import measure_network_drive
from repro.config.presets import make_system
from repro.config.system import NetworkConfig
from repro.errors import ConfigurationError
from repro.experiments.model_agreement import (
    KNOBS,
    agreement_jobs,
    max_disagreement,
    run_model_agreement,
)
from repro.network import (
    DEFAULT_AUTO_NPU_THRESHOLD,
    MAX_DETAILED_NPUS,
    MAX_HYBRID_NPUS,
    DetailedBackend,
    HybridBackend,
    NetworkBackend,
    SymmetricFabric,
    backend_names,
    make_network_backend,
    resolve_backend_name,
    topology_from_spec,
)
from repro.runner import ResultCache, SimJob, SweepRunner
from repro.sim.engine import Simulator
from repro.training.comm import CollectiveExecutor
from repro.training.loop import simulate_training
from repro.units import KB, MB


# ---------------------------------------------------------------------------
# Registry and auto heuristic
# ---------------------------------------------------------------------------


class TestBackendRegistry:
    def test_builtin_backends_are_registered(self):
        names = backend_names()
        assert "symmetric" in names
        assert "detailed" in names

    def test_make_backend_builds_the_named_class(self, torus_422):
        network = NetworkConfig()
        assert isinstance(
            make_network_backend("symmetric", torus_422, network), SymmetricFabric
        )
        assert isinstance(
            make_network_backend("detailed", torus_422, network), DetailedBackend
        )

    def test_unknown_backend_name_raises(self, torus_422):
        with pytest.raises(ConfigurationError, match="unknown network backend"):
            make_network_backend("garnet", torus_422, NetworkConfig())

    def test_auto_ladder_detailed_hybrid_symmetric(self):
        small = topology_from_spec("torus:4x2x2")
        at_threshold = topology_from_spec("torus:4x4x4")
        mid = topology_from_spec("torus:8x4x4")
        large = topology_from_spec("torus:8x16x8")
        huge = topology_from_spec("torus:16x16x16")
        assert at_threshold.num_nodes == DEFAULT_AUTO_NPU_THRESHOLD
        assert large.num_nodes <= MAX_HYBRID_NPUS < huge.num_nodes
        assert resolve_backend_name("auto", small) == "detailed"
        assert resolve_backend_name("auto", at_threshold) == "detailed"
        assert resolve_backend_name("auto", mid) == "hybrid"
        assert resolve_backend_name("auto", large) == "hybrid"
        assert resolve_backend_name("auto", huge) == "symmetric"

    def test_auto_threshold_is_configurable(self, torus_422):
        # Above the detailed threshold (but under the hybrid cap) "auto"
        # lands on the hybrid rung.
        assert resolve_backend_name("auto", torus_422, auto_threshold=8) == "hybrid"
        with pytest.raises(ConfigurationError, match="threshold must be positive"):
            resolve_backend_name("auto", torus_422, auto_threshold=0)

    def test_explicit_detailed_above_cap_is_infeasible(self):
        huge = topology_from_spec("torus:8x16x8")
        assert huge.num_nodes > MAX_DETAILED_NPUS
        with pytest.raises(ConfigurationError, match="infeasible"):
            make_network_backend("detailed", huge, NetworkConfig())

    def test_both_backends_satisfy_the_protocol(self, torus_422):
        for name in ("symmetric", "detailed"):
            backend = make_network_backend(name, torus_422, NetworkConfig())
            assert isinstance(backend, NetworkBackend)
            assert backend.name == name
            assert backend.has_dimension("local")
            assert not backend.has_dimension("nonexistent")
            assert set(backend.dimensions) == {"local", "vertical", "horizontal"}
            reservation = backend.reserve("local", 64 * KB, 0.0, steps=3)
            assert reservation.finish > reservation.start >= 0.0
            assert backend.bytes_injected == pytest.approx(64 * KB)
            assert backend.last_activity() > 0.0
            backend.reset()
            assert backend.bytes_injected == 0.0


class TestUncontendedArithmetic:
    def test_single_step_transfer_times_match_exactly(self, torus_422):
        """With no contention and one ring step both models charge
        serialization over the aggregate dimension bandwidth plus one link
        latency — bit-identical finish times."""
        network = NetworkConfig()
        for dimension in ("local", "vertical", "horizontal"):
            symmetric = SymmetricFabric(torus_422, network)
            detailed = DetailedBackend(torus_422, network)
            a = symmetric.reserve(dimension, 256 * KB, 0.0, steps=1)
            b = detailed.reserve(dimension, 256 * KB, 0.0, steps=1)
            assert b.finish == pytest.approx(a.finish, rel=1e-9), dimension

    def test_multi_step_transfer_is_bounded_by_both_models(self, torus_422):
        """Multi-step rings pipeline messages hop by hop, so the detailed
        model hides part of the per-step latency the symmetric model charges
        in full: serialization + one latency <= detailed <= symmetric."""
        network = NetworkConfig()
        for dimension, steps in (("local", 3), ("vertical", 2)):
            symmetric = SymmetricFabric(torus_422, network)
            detailed = DetailedBackend(torus_422, network)
            a = symmetric.reserve(dimension, 256 * KB, 0.0, steps=steps)
            b = detailed.reserve(dimension, 256 * KB, 0.0, steps=steps)
            serialization = 256 * KB / network.dimension_bandwidth_gbps(dimension)
            latency = network.dimension_latency_ns(dimension)
            assert serialization + latency - 1e-6 <= b.finish <= a.finish + 1e-6, dimension

    def test_detailed_port_count_follows_link_provisioning(self, torus_422):
        detailed = DetailedBackend(torus_422, NetworkConfig())
        assert len(detailed.ports("local")) == 2
        assert len(detailed.ports("vertical")) == 2
        assert detailed.injection_bandwidth_gbps == pytest.approx(
            SymmetricFabric(torus_422, NetworkConfig()).injection_bandwidth_gbps
        )

    def test_per_dimension_bytes_and_link_stats_account_everything(self, torus_422):
        detailed = DetailedBackend(torus_422, NetworkConfig())
        detailed.reserve("local", 100.0, 0.0, steps=2)
        detailed.reserve("vertical", 60.0, 0.0)
        per_dim = detailed.per_dimension_bytes()
        assert per_dim["local"] == pytest.approx(100.0)
        assert per_dim["vertical"] == pytest.approx(60.0)
        assert sum(r["bytes_moved"] for r in detailed.per_link_stats()) == pytest.approx(
            detailed.bytes_injected
        )


class TestQueuingDelay:
    """Every backend's ``reserve`` says when the request was made."""

    def test_symmetric_multi_step_reservation(self, torus_422):
        fabric = SymmetricFabric(torus_422, NetworkConfig())
        pipe = fabric.pipe("local")
        first = fabric.reserve("local", 256 * KB, 0.0, steps=3)
        second = fabric.reserve("local", 256 * KB, 0.0, steps=3)
        serialization = 256 * KB / pipe.bandwidth_gbps
        assert (first.requested, first.queuing_delay) == (0.0, 0.0)
        assert second.requested == 0.0
        assert second.queuing_delay == pytest.approx(serialization)
        # The extra ring-step latencies move the finish, not the start.
        assert second.finish == pytest.approx(2 * serialization + 3 * pipe.latency_ns)

    def test_detailed_reservation(self, torus_422):
        backend = DetailedBackend(torus_422, NetworkConfig())
        first = backend.reserve("vertical", 256 * KB, 100.0, steps=2)
        second = backend.reserve("vertical", 256 * KB, 100.0, steps=2)
        assert (first.requested, first.start, first.queuing_delay) == (100.0, 100.0, 0.0)
        assert second.requested == 100.0
        assert second.start > 100.0
        assert second.queuing_delay == second.start - 100.0


# ---------------------------------------------------------------------------
# The backend knob: SystemConfig.network_backend and SimJob.backend
# ---------------------------------------------------------------------------


class TestBackendKnob:
    def test_default_system_uses_symmetric(self):
        assert make_system("ace").network_backend == "symmetric"

    def test_make_system_backend_argument(self):
        system = make_system("ace").with_overrides(network_backend="detailed")
        assert system.network_backend == "detailed"
        assert system.describe()["network_backend"] == "detailed"

    def test_bad_backend_fails_at_executor_construction(self, torus_222):
        system = make_system("ace").with_overrides(network_backend="garnet")
        with pytest.raises(ConfigurationError, match="unknown network backend"):
            CollectiveExecutor(Simulator(), system, torus_222)

    def test_executor_honours_system_backend_and_override(self, torus_222):
        system = make_system("ace").with_overrides(network_backend="detailed")
        executor = CollectiveExecutor(Simulator(), system, torus_222)
        assert isinstance(executor.fabric, DetailedBackend)
        overridden = CollectiveExecutor(
            Simulator(), system.with_overrides(network_backend="symmetric"), torus_222
        )
        assert isinstance(overridden.fabric, SymmetricFabric)

    def test_auto_backend_respects_system_threshold(self):
        topology = topology_from_spec("torus:4x2x2")
        system = make_system("ace").with_overrides(network_backend="auto").with_overrides(
            network_backend_auto_threshold=8
        )
        executor = CollectiveExecutor(Simulator(), system, topology)
        assert isinstance(executor.fabric, HybridBackend)

    def test_simjob_backend_round_trip_and_conflict(self):
        job = SimJob(workload="resnet50", num_npus=16, backend="detailed")
        assert SimJob.from_json(job.to_json()) == job
        assert job.build_system().network_backend == "detailed"
        with pytest.raises(ConfigurationError, match="unknown network backend"):
            SimJob(workload="resnet50", num_npus=16, backend="garnet")
        # The job field is the only job-level spelling of the backend.
        with pytest.raises(ConfigurationError, match="unknown override section 'network_backend'"):
            SimJob(
                workload="resnet50",
                num_npus=16,
                backend="detailed",
                overrides={"network_backend": "symmetric"},
            )

    def test_simulate_training_backend_argument(self, torus_222, resnet50_workload):
        result = simulate_training(
            make_system("ideal").with_overrides(network_backend="detailed"),
            resnet50_workload,
            num_npus=torus_222,
            iterations=1,
            chunk_bytes=512 * KB,
        )
        assert result.total_time_ns > 0


# ---------------------------------------------------------------------------
# Bugfix: fabric built for a different topology than the loop's
# ---------------------------------------------------------------------------


class TestFabricTopologyMismatch:
    def test_mismatched_fabric_raises_and_names_both_topologies(self, torus_222, torus_444):
        system = make_system("ace")
        fabric = SymmetricFabric(torus_444, system.network)
        with pytest.raises(ConfigurationError) as excinfo:
            CollectiveExecutor(Simulator(), system, torus_222, fabric=fabric)
        message = str(excinfo.value)
        assert torus_444.name in message
        assert torus_222.name in message

    def test_equivalent_topology_instances_are_accepted(self, torus_222):
        from repro.network.topology import Torus3D

        system = make_system("ace")
        fabric = SymmetricFabric(Torus3D(2, 2, 2), system.network)
        executor = CollectiveExecutor(Simulator(), system, torus_222, fabric=fabric)
        assert executor.fabric is fabric


# ---------------------------------------------------------------------------
# Cross-backend equivalence: all five planner algorithms
# ---------------------------------------------------------------------------

#: Each planner algorithm on a small fabric it supports — the paper's 8- and
#: 16-NPU torus shapes for the torus algorithms (a 2x2x2 torus is
#: deliberately avoided: every ring has size 2 there, which maximises
#: head-of-line interleaving between chunks and is exactly where a per-link
#: FIFO model legitimately drifts past the analytical one).
ALGORITHM_FABRICS = [
    ("hierarchical", "torus:4x2x1", "all_reduce"),
    ("hierarchical", "torus:4x2x2", "all_reduce"),
    ("direct", "torus:4x2x2", "all_to_all"),
    ("ring", "torus:4x2x1", "all_reduce"),
    ("tree", "fc:8", "all_reduce"),
    ("halving_doubling", "switch:8", "all_reduce"),
]


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("algorithm,fabric,op", ALGORITHM_FABRICS)
    def test_detailed_matches_symmetric_within_tolerance(self, algorithm, fabric, op):
        topology = topology_from_spec(fabric)
        durations = {}
        for backend in ("symmetric", "detailed"):
            drive = measure_network_drive(
                make_system("ace").with_overrides(
                    collective_algorithm=algorithm, network_backend=backend
                ),
                topology,
                payload_bytes=4 * MB,
                op=op,
                chunk_bytes=512 * KB,
            )
            durations[backend] = drive.duration_ns
        assert durations["detailed"] == pytest.approx(
            durations["symmetric"], rel=TOLERANCE
        ), (algorithm, fabric)

    def test_training_iteration_breakdowns_agree(self, resnet50_workload):
        results = {}
        for backend in ("symmetric", "detailed"):
            results[backend] = simulate_training(
                make_system("ace").with_overrides(network_backend=backend),
                resnet50_workload,
                num_npus=8,
                iterations=2,
                chunk_bytes=128 * KB,
            )
        symmetric, detailed = results["symmetric"], results["detailed"]
        assert detailed.total_time_ns == pytest.approx(
            symmetric.total_time_ns, rel=TOLERANCE
        )
        exposed_delta = abs(symmetric.exposed_comm_ns - detailed.exposed_comm_ns)
        assert exposed_delta <= TOLERANCE * max(
            symmetric.total_time_ns, detailed.total_time_ns
        )
        assert len(detailed.iteration_breakdowns) == len(symmetric.iteration_breakdowns)


# ---------------------------------------------------------------------------
# The validation experiment (the paper's model-validation analogue)
# ---------------------------------------------------------------------------


TOLERANCE = KNOBS["backend"].tolerance


class TestBackendValidationExperiment:
    def test_jobs_come_in_backend_pairs(self):
        jobs = agreement_jobs("backend")
        assert len(jobs) % 2 == 0
        for index in range(0, len(jobs), 2):
            first, second = jobs[index], jobs[index + 1]
            assert first.backend == "symmetric"
            assert second.backend == "detailed"
            assert first.to_dict().keys() == second.to_dict().keys()

    def test_oversized_cells_are_rejected(self):
        with pytest.raises(ConfigurationError, match="<= 32"):
            agreement_jobs("backend", training_cells=(("resnet50", 64),))

    @pytest.mark.slow
    def test_symmetric_tracks_detailed_within_tolerance(self):
        """The repo's analogue of the paper's model-validation claim."""
        runner = SweepRunner(workers=2, cache=ResultCache())
        rows = run_model_agreement("backend", runner=runner)
        assert rows, "validation sweep produced no cells"
        assert max_disagreement(rows) <= TOLERANCE, rows

    @pytest.mark.slow
    def test_validation_holds_for_the_overlap_baseline_too(self):
        runner = SweepRunner(workers=2, cache=ResultCache())
        rows = run_model_agreement(
            "backend",
            system="baseline_comm_opt",
            training_cells=(("resnet50", 16), ("dlrm", 16)),
            drive_cells=(("torus:4x2x2", "all_reduce"),),
            runner=runner,
        )
        assert max_disagreement(rows) <= TOLERANCE, rows


# ---------------------------------------------------------------------------
# Contention: what the detailed backend expresses that symmetric cannot
# ---------------------------------------------------------------------------


class TestDetailedContention:
    def test_event_driven_flag_routes_executor_through_transfer(self, torus_222):
        assert DetailedBackend.event_driven is True
        assert SymmetricFabric.event_driven is False

    def test_synchronous_transfer_callbacks_do_not_fork_the_stage_chain(self, torus_222):
        """A backend may deliver on_complete synchronously from transfer();
        the executor must still run each chunk's stage chain exactly once."""

        class SynchronousBackend(SymmetricFabric):
            event_driven = True

            def transfer(self, sim, dimension, num_bytes, steps, on_complete):
                on_complete(self.reserve(dimension, num_bytes, sim.now, steps=steps).finish)

        system = make_system("ideal")
        sim = Simulator()
        fabric = SynchronousBackend(torus_222, system.network)
        executor = CollectiveExecutor(sim, system, torus_222, fabric=fabric, chunk_bytes=256 * KB)
        handle = executor.issue("all_reduce", 1 * MB)
        sim.run()
        assert handle.finished
        assert handle.chunks_completed == handle.num_chunks
        assert executor.inflight_chunks == 0

    def test_concurrent_collectives_contend_per_link(self, torus_222):
        """Two concurrent all-reduces must serialise on the shared ports."""
        system = make_system("ideal").with_overrides(network_backend="detailed")
        sim = Simulator()
        executor = CollectiveExecutor(sim, system, torus_222, chunk_bytes=256 * KB)
        solo_sim = Simulator()
        solo = CollectiveExecutor(solo_sim, system, torus_222, chunk_bytes=256 * KB)

        solo_handle = solo.issue("all_reduce", 2 * MB)
        solo_sim.run()
        first = executor.issue("all_reduce", 2 * MB)
        second = executor.issue("all_reduce", 2 * MB)
        sim.run()

        assert solo_handle.duration_ns is not None
        assert first.duration_ns is not None and second.duration_ns is not None
        last_done = max(first.completed_at, second.completed_at)
        # Two payloads through the same links cannot finish as fast as one...
        assert last_done > solo_handle.completed_at * 1.5
        # ...but contention must not more than double the makespan (the
        # fabric keeps serving both; it does not livelock or serialise
        # beyond the extra bytes).
        assert last_done < solo_handle.completed_at * 2.5
