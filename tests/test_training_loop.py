"""Training-loop simulation and result accounting."""

from collections import Counter

import pytest

from repro.config.presets import make_system
from repro.errors import SimulationError
from repro.network.symmetric import SymmetricFabric
from repro.network.topology import Torus3D
from repro.sim.resources import BandwidthResource, Reservation
from repro.sim.trace import IntervalTracer
from repro.training.comm import CollectiveExecutor
from repro.training.loop import TrainingLoop, simulate_training
from repro.training.results import IterationBreakdown, TrainingResult
from repro.units import KB
from repro.workloads.registry import build_workload

CHUNK = 512 * KB


@pytest.fixture(scope="module")
def small_resnet():
    return build_workload("resnet50", batch_size=8)


class TestTrainingLoopBasics:
    def test_runs_to_completion(self, small_resnet):
        result = simulate_training(
            make_system("ace"), small_resnet, num_npus=16, iterations=2, chunk_bytes=CHUNK
        )
        assert result.total_time_ns > 0
        assert result.total_compute_ns > 0
        assert result.iterations == 2
        assert len(result.iteration_breakdowns) == 2

    def test_iteration_breakdowns_are_contiguous(self, small_resnet):
        result = simulate_training(
            make_system("ace"), small_resnet, num_npus=16, iterations=2, chunk_bytes=CHUNK
        )
        first, second = result.iteration_breakdowns
        assert first.forward_start_ns == 0.0
        assert first.end_ns == pytest.approx(second.forward_start_ns)
        assert second.end_ns == pytest.approx(result.total_time_ns)
        for b in (first, second):
            assert b.forward_start_ns <= b.backward_start_ns <= b.end_ns

    def test_time_equals_compute_plus_exposed(self, small_resnet):
        result = simulate_training(
            make_system("baseline_comm_opt"), small_resnet, num_npus=16, iterations=2,
            chunk_bytes=CHUNK,
        )
        assert result.total_time_ns == pytest.approx(
            result.total_compute_ns + result.exposed_comm_ns, rel=1e-6
        )

    def test_collectives_issued_per_layer_per_iteration(self, small_resnet):
        result = simulate_training(
            make_system("ace"), small_resnet, num_npus=16, iterations=2, chunk_bytes=CHUNK
        )
        assert result.collectives_issued == 2 * small_resnet.num_layers

    def test_no_overlap_batches_collectives(self, small_resnet):
        result = simulate_training(
            make_system("baseline_no_overlap"), small_resnet, num_npus=16, iterations=2,
            chunk_bytes=CHUNK,
        )
        # One batched all-reduce per iteration instead of one per layer.
        assert result.collectives_issued == 2
        assert result.exposed_comm_ns > 0

    def test_topology_accepts_int_shape_and_torus(self, small_resnet):
        system = make_system("ideal")
        by_int = simulate_training(system, small_resnet, num_npus=16, chunk_bytes=CHUNK)
        by_shape = simulate_training(system, small_resnet, num_npus=(4, 2, 2), chunk_bytes=CHUNK)
        by_torus = simulate_training(system, small_resnet, num_npus=Torus3D(4, 2, 2), chunk_bytes=CHUNK)
        assert by_int.num_npus == by_shape.num_npus == by_torus.num_npus == 16
        assert by_int.total_time_ns == pytest.approx(by_shape.total_time_ns)
        assert by_int.total_time_ns == pytest.approx(by_torus.total_time_ns)

    def test_invalid_iterations(self, small_resnet):
        with pytest.raises(SimulationError):
            TrainingLoop(make_system("ace"), 16, small_resnet, iterations=0)


class TestConfigurationOrdering:
    @pytest.fixture(scope="class")
    def results(self, small_resnet):
        out = {}
        for name in ("ideal", "ace", "baseline_comp_opt", "baseline_comm_opt"):
            out[name] = simulate_training(
                make_system(name), small_resnet, num_npus=64, iterations=2, chunk_bytes=CHUNK
            )
        return out

    def test_ideal_is_fastest(self, results):
        ideal = results["ideal"].total_time_ns
        for name, result in results.items():
            assert result.total_time_ns >= ideal * 0.999

    def test_ace_beats_both_baselines(self, results):
        assert results["ace"].total_time_ns <= results["baseline_comp_opt"].total_time_ns
        assert results["ace"].total_time_ns <= results["baseline_comm_opt"].total_time_ns

    def test_comm_opt_has_slowest_compute(self, results):
        assert results["baseline_comm_opt"].total_compute_ns > results["baseline_comp_opt"].total_compute_ns
        assert results["baseline_comm_opt"].total_compute_ns > results["ace"].total_compute_ns

    def test_ace_close_to_ideal(self, results):
        fraction = results["ace"].fraction_of_ideal(results["ideal"])
        assert fraction > 0.85

    def test_network_traffic_identical_across_configs(self, results):
        injected = {name: r.bytes_injected for name, r in results.items()}
        reference = injected["ideal"]
        for value in injected.values():
            assert value == pytest.approx(reference, rel=1e-6)


class TestDlrmLoop:
    def test_dlrm_runs_with_alltoall(self, dlrm_workload):
        result = simulate_training(
            make_system("ace"), dlrm_workload, num_npus=16, iterations=2, chunk_bytes=CHUNK
        )
        # Per iteration: one all-reduce per MLP layer plus 2 all-to-alls.
        expected = 2 * (dlrm_workload.num_layers + 2)
        assert result.collectives_issued == expected

    def test_optimized_loop_is_not_slower(self, dlrm_workload):
        system = make_system("ace")
        default = simulate_training(
            system, dlrm_workload, num_npus=16, iterations=2, chunk_bytes=CHUNK
        )
        optimized = simulate_training(
            system, dlrm_workload, num_npus=16, iterations=2, chunk_bytes=CHUNK,
            overlap_embedding=True,
        )
        assert optimized.total_time_ns <= default.total_time_ns
        assert optimized.total_compute_ns < default.total_compute_ns


class TestMegatronLoop:
    def test_blocking_activation_allreduces_expose_communication(self):
        megatron = build_workload("megatron", num_layers=4)
        result = simulate_training(
            make_system("baseline_comm_opt"), megatron, num_npus=16, iterations=1,
            chunk_bytes=1024 * KB,
        )
        assert result.exposed_comm_ns > 0


class TestRecordedTracers:
    """Only tracers that a :class:`TrainingResult` reads may record intervals."""

    @pytest.mark.parametrize("backend", ["symmetric", "detailed"])
    @pytest.mark.parametrize("system_name", ["ace", "baseline_comm_opt", "ideal"])
    def test_every_recording_tracer_is_read(
        self, small_resnet, monkeypatch, system_name, backend
    ):
        recorded = set()
        record = IntervalTracer.record

        def spy(tracer, start, end):
            recorded.add(tracer)
            record(tracer, start, end)

        monkeypatch.setattr(IntervalTracer, "record", spy)
        system = make_system(system_name).with_overrides(network_backend=backend)
        loop = TrainingLoop(system, 16, small_resnet, iterations=1, chunk_bytes=CHUNK)
        loop.run()
        read = loop.executor.fabric.tracers() + [
            loop.executor.endpoint.activity,
            loop.compute.tracer,
        ]
        assert recorded
        unread = sorted(tracer.name for tracer in recorded.difference(read))
        assert not unread, f"tracers record but no result reads them: {unread}"


class TestChunkPathAllocations:
    """A symmetric chunk-phase books its endpoint cost and its pipe inline, and nothing else."""

    @pytest.mark.parametrize("system_name", ["ace", "baseline_comm_opt"])
    def test_phase_books_pipe_directly(self, small_resnet, monkeypatch, system_name):
        counts = Counter()
        new = Reservation.__new__

        def counting_new(cls, *args, **kwargs):
            counts["reservations"] += 1
            return new(cls, *args, **kwargs)

        def counted(name, method):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return method(*args, **kwargs)

            return wrapper

        reserve_times = BandwidthResource.reserve_times

        def counting_reserve_times(resource, num_bytes, earliest_start):
            counts[f"reserve_times:{resource.name}"] += 1
            return reserve_times(resource, num_bytes, earliest_start)

        record = IntervalTracer.record

        def counting_record(tracer, start, end):
            counts[f"record:{tracer.name}"] += 1
            return record(tracer, start, end)

        stage_table = CollectiveExecutor.stage_table
        sent = Counter()

        def counting_stage_table(executor, op, chunk_size):
            # Every chunk looks its table up once, when it starts.
            table = stage_table(executor, op, chunk_size)
            for stage in table:
                for row in stage:
                    if row.on_fabric:
                        sent[row.work.dimension] += row.work.send_bytes
            return table

        monkeypatch.setattr(Reservation, "__new__", staticmethod(counting_new))
        monkeypatch.setattr(
            SymmetricFabric, "reserve", counted("fabric", SymmetricFabric.reserve)
        )
        monkeypatch.setattr(
            BandwidthResource, "reserve", counted("resource", BandwidthResource.reserve)
        )
        monkeypatch.setattr(BandwidthResource, "reserve_times", counting_reserve_times)
        monkeypatch.setattr(IntervalTracer, "record", counting_record)
        monkeypatch.setattr(CollectiveExecutor, "stage_table", counting_stage_table)
        system = make_system(system_name).with_overrides(network_backend="symmetric")
        loop = TrainingLoop(system, 16, small_resnet, iterations=1, chunk_bytes=CHUNK)
        loop.run()
        assert counts["reservations"] == counts["fabric"] == counts["resource"] == 0
        # No pipe, DMA or phase leg is booked through reserve_times, and no
        # pipe's busy interval through record(): the executor and the
        # endpoint book them inline.  Only the NPU's compute tracer and the
        # endpoint's activity tracer record.
        assert not [key for key in counts if key.startswith("reserve_times:")]
        recorded = {key[7:] for key in counts if key.startswith("record:")}
        assert recorded == {"npu-compute", f"endpoint-{system.name}"}
        # Each pipe carries the bytes of its on-fabric chunk-phases: booked
        # once per phase, none dropped or doubled.
        pipes = loop.executor.fabric._pipes
        assert sent and set(sent) == set(pipes)
        for dimension, num_bytes in sent.items():
            assert pipes[dimension].bytes_moved == pytest.approx(num_bytes, rel=1e-12)


class TestTrainingResult:
    def test_row_and_describe(self, small_resnet):
        result = simulate_training(
            make_system("ace"), small_resnet, num_npus=16, iterations=2, chunk_bytes=CHUNK
        )
        row = result.as_row()
        assert row["system"] == "ACE"
        assert row["npus"] == 16
        assert "ACE" in result.describe()

    def test_speedup_and_fraction(self):
        fast = TrainingResult("A", "w", 16, 1, 100.0, 80.0, 20.0, 0.0, 100.0)
        slow = TrainingResult("B", "w", 16, 1, 200.0, 80.0, 120.0, 0.0, 200.0)
        assert slow.iteration_time_ns / fast.iteration_time_ns == pytest.approx(2.0)
        assert slow.fraction_of_ideal(fast) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(SimulationError):
            TrainingResult("A", "w", 16, 0, 1.0, 1.0, 0.0, 0.0, 1.0)
        with pytest.raises(SimulationError):
            TrainingResult("A", "w", 16, 1, -1.0, 1.0, 0.0, 0.0, 1.0)

    def test_breakdown_windows(self):
        b = IterationBreakdown(0, forward_start_ns=0.0, backward_start_ns=10.0, end_ns=30.0)
        assert b.duration_ns == 30.0
        assert b.forward_window == (0.0, 10.0)
        assert b.backward_window == (10.0, 30.0)
