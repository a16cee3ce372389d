"""Collective executor: chunking, scheduling, completion."""

import pytest

from oracles import feasible_algorithms
from repro.collectives.base import CollectiveOp, CollectivePlan
from repro.collectives.planner import algorithm_implements, algorithms
from repro.config.presets import make_system
from repro.endpoint.base import PhaseWork
from repro.errors import SchedulingError
from repro.network.topology import Torus3D, topology_from_spec
from repro.sim.engine import Simulator
from repro.training.comm import CollectiveExecutor
from repro.units import KB, MB


def _executor(system_name="ideal", shape=(4, 2, 2), chunk_bytes=64 * KB, **overrides):
    system = make_system(system_name, **overrides)
    sim = Simulator()
    executor = CollectiveExecutor(sim, system, Torus3D(*shape), chunk_bytes=chunk_bytes)
    return sim, executor


class TestIssueAndCompletion:
    def test_collective_ids_count_per_executor(self):
        _, first = _executor()
        first.issue("all_reduce", 64 * KB)
        first.issue("all_reduce", 64 * KB)
        handles = [_executor()[1].issue("all_reduce", 64 * KB) for _ in range(2)]
        assert [(h.id, h.name) for h in handles] == [(0, "all_reduce-0")] * 2

    def test_single_collective_completes(self):
        sim, executor = _executor()
        handle = executor.issue("all_reduce", 1 * MB)
        assert handle.num_chunks == 16
        sim.run()
        assert handle.finished
        assert handle.completed_at > handle.issued_at
        assert handle.done.fired

    def test_payload_smaller_than_chunk(self):
        sim, executor = _executor()
        handle = executor.issue("all_reduce", 10 * KB)
        assert handle.num_chunks == 1
        sim.run()
        assert handle.finished

    def test_invalid_payload_rejected(self):
        _, executor = _executor()
        with pytest.raises(SchedulingError):
            executor.issue("all_reduce", 0)

    def test_all_to_all_completes(self):
        sim, executor = _executor()
        handle = executor.issue(CollectiveOp.ALL_TO_ALL, 1 * MB)
        sim.run()
        assert handle.finished

    def test_injected_bytes_match_plan(self):
        sim, executor = _executor()
        payload = 2 * MB
        handle = executor.issue("all_reduce", payload)
        sim.run()
        expected = payload * handle.plan.total_injected_fraction
        assert executor.fabric.bytes_injected == pytest.approx(expected, rel=1e-6)

    def test_multiple_collectives_all_finish(self):
        sim, executor = _executor()
        handles = [executor.issue("all_reduce", 256 * KB, name=f"c{i}") for i in range(5)]
        sim.run()
        assert all(h.finished for h in handles)

    def test_single_node_topology_completes_immediately(self):
        system = make_system("ideal")
        sim = Simulator()
        executor = CollectiveExecutor(sim, system, Torus3D(2, 1, 1), chunk_bytes=64 * KB)
        # Shrink to a 1-node "fabric" is impossible (needs >= 2), so use the
        # degenerate plan path via a topology with a single active dimension.
        handle = executor.issue("all_reduce", 64 * KB)
        sim.run()
        assert handle.finished


class TestScheduling:
    def test_lifo_prioritizes_latest_collective(self):
        sim, executor = _executor("ace", chunk_bytes=64 * KB)
        # Issue a large collective, then a tiny one: under LIFO the tiny one
        # (issued last) should not have to wait for the whole large one.
        big = executor.issue("all_reduce", 8 * MB, name="big")
        small = executor.issue("all_reduce", 64 * KB, name="small")
        sim.run()
        assert small.completed_at < big.completed_at

    def test_fifo_finishes_in_issue_order(self):
        sim, executor = _executor("ideal")
        executor.scheduling = "fifo"
        first = executor.issue("all_reduce", 4 * MB, name="first")
        second = executor.issue("all_reduce", 4 * MB, name="second")
        sim.run()
        assert first.completed_at <= second.completed_at

    def test_launch_overhead_delays_baseline_collectives(self):
        sim_a, ex_a = _executor("ideal")
        h_a = ex_a.issue("all_reduce", 64 * KB)
        sim_a.run()
        sim_b, ex_b = _executor("baseline_comm_opt")
        h_b = ex_b.issue("all_reduce", 64 * KB)
        sim_b.run()
        assert h_b.duration_ns > h_a.duration_ns

    def test_inflight_chunks_bounded_by_endpoint_capacity(self):
        sim, executor = _executor("ace")
        handle = executor.issue("all_reduce", 32 * MB)
        capacity = executor.endpoint.chunk_capacity()
        seen = []

        def probe():
            # A probe event every 50 ns reads the in-flight count until the
            # collective completes.
            seen.append(executor._inflight_chunks)
            if not handle.finished:
                sim.schedule(50.0, probe)

        sim.schedule(0.0, probe)
        sim.run()
        assert handle.finished
        assert 1 < max(seen) <= capacity


class TestEndpointInteraction:
    def test_baseline_memory_reads_track_section6a_ratio(self):
        sim, executor = _executor("baseline_comm_opt", shape=(4, 4, 4))
        payload = 4 * MB
        handle = executor.issue("all_reduce", payload)
        sim.run()
        injected = payload * handle.plan.total_injected_fraction
        ratio = executor.endpoint.memory_read_bytes / injected
        assert ratio == pytest.approx(1.5, rel=0.02)

    def test_ace_memory_traffic_is_payload_in_plus_out(self):
        sim, executor = _executor("ace", shape=(4, 4, 4))
        payload = 4 * MB
        executor.issue("all_reduce", payload)
        sim.run()
        assert executor.endpoint.memory_read_bytes == pytest.approx(payload, rel=1e-6)
        assert executor.endpoint.memory_write_bytes == pytest.approx(payload, rel=1e-6)

    def test_ideal_faster_than_baseline(self):
        times = {}
        for name in ("ideal", "baseline_comp_opt"):
            sim, executor = _executor(name, shape=(4, 4, 4))
            handle = executor.issue("all_reduce", 8 * MB)
            sim.run()
            times[name] = handle.duration_ns
        assert times["ideal"] < times["baseline_comp_opt"]


def _per_chunk_stages(plan, chunk_size, endpoint, fabric):
    """The stage rows as a chunk once rebuilt them: each phase's work, its
    endpoint cost, whether it goes on the fabric and, on the symmetric
    fabric, the pipe it books and the latency its later steps add there."""
    stages = plan.stages()
    table = []
    for stage_index, stage in enumerate(stages):
        phase_offset = sum(len(s) for s in stages[:stage_index])
        rows = []
        for within_stage, phase in enumerate(stage):
            work = PhaseWork.from_phase(
                phase,
                phase_index=phase_offset + within_stage,
                chunk_bytes=chunk_size,
                is_first=stage_index == 0,
                is_last=stage_index == len(stages) - 1,
            )
            on_fabric = work.send_bytes > 0 and fabric.has_dimension(phase.dimension)
            pipe, tail = None, 0.0
            if on_fabric and not fabric.event_driven:
                pipe = fabric.pipe(phase.dimension)
                tail = (phase.steps - 1) * pipe.latency_ns if phase.steps > 1 else 0.0
            rows.append((work, endpoint.phase_cost(work), on_fabric, pipe, tail))
        table.append(tuple(rows))
    return tuple(table)


def _algorithm_cases():
    """Every registered (algorithm, op) on the first fabric that supports it."""
    fabrics = ("torus:4x2x2", "ring:8", "switch:8")
    cases = []
    for algorithm in algorithms():
        for op in CollectiveOp:
            if not algorithm_implements(algorithm, op):
                continue
            fabric = next(
                spec
                for spec in fabrics
                if algorithm in feasible_algorithms(op, topology_from_spec(spec))
            )
            cases.append((algorithm, op, fabric))
    return cases


def _check_table_matches_per_chunk_construction(system_name, backend, algorithm, op, fabric):
    system = make_system(system_name).with_overrides(
        collective_algorithm=algorithm, network_backend=backend
    )
    executor = CollectiveExecutor(
        Simulator(), system, topology_from_spec(fabric), chunk_bytes=64 * KB
    )
    plan = executor.issue(op, 160 * KB).plan
    for chunk_size in (64 * KB, 32 * KB):
        assert executor.stage_table(op, chunk_size) == _per_chunk_stages(
            plan, chunk_size, executor.endpoint, executor.fabric
        )


class TestStageTables:
    @pytest.mark.parametrize("algorithm,op,fabric", _algorithm_cases())
    def test_table_matches_per_chunk_construction(self, algorithm, op, fabric):
        _check_table_matches_per_chunk_construction("ideal", "symmetric", algorithm, op, fabric)

    @pytest.mark.parametrize("system_name", ["ace", "baseline_comm_opt"])
    @pytest.mark.parametrize("backend", ["symmetric", "detailed"])
    @pytest.mark.parametrize("algorithm,op,fabric", _algorithm_cases())
    def test_rows_match_per_chunk_costs(self, algorithm, op, fabric, backend, system_name):
        _check_table_matches_per_chunk_construction(system_name, backend, algorithm, op, fabric)

    def test_remainder_payload_builds_exactly_two_tables(self, monkeypatch):
        sim, executor = _executor("ace")
        built = []
        stages = CollectivePlan.stages
        monkeypatch.setattr(
            CollectivePlan, "stages", lambda plan: built.append(plan) or stages(plan)
        )
        handle = executor.issue("all_reduce", 10 * 64 * KB + 5 * KB)
        sim.run()
        assert handle.finished and handle.num_chunks == 11
        assert len(built) == 2
        # Later collectives of the same operation and chunk sizes reuse them.
        executor.issue("all_reduce", 3 * 64 * KB + 5 * KB)
        sim.run()
        assert len(built) == 2
