"""ACE micro-architecture: granularity, SRAM, FSMs, ALUs, engine, area/power."""

import pytest

from repro.collectives.planner import plan_collective
from repro.config.presets import make_system
from repro.config.system import AceConfig, NetworkConfig
from repro.core.alu import AluArray
from repro.core.area_power import AceAreaPowerModel
from repro.core.engine import AceEngine
from repro.core.fsm import FsmPool
from repro.core.granularity import GranularityPolicy
from repro.core.sram import SramScratchpad, partition_sram
from repro.errors import CollectiveError, ResourceError, SchedulingError
from repro.units import KB, MB


class TestGranularity:
    def test_table3_defaults(self):
        policy = GranularityPolicy.from_ace_config(AceConfig())
        assert policy.chunk_bytes == 64 * KB
        assert policy.message_bytes == 8 * KB
        assert policy.packet_bytes == 256

    def test_chunks_for_payload(self):
        policy = GranularityPolicy(64 * KB, 8 * KB, 256)
        sizes = policy.chunks_for_payload(200 * KB)
        assert len(sizes) == 4
        assert sum(sizes) == 200 * KB
        assert policy.num_chunks(64 * KB) == 1

    def test_messages_per_chunk_is_multiple_of_nodes(self):
        policy = GranularityPolicy(64 * KB, 8 * KB, 256)
        for nodes in (3, 4, 7, 16):
            count = policy.messages_per_chunk(64 * KB, nodes)
            assert count % nodes == 0
            assert 64 * KB / count <= policy.message_bytes

    def test_packets_per_message(self):
        policy = GranularityPolicy(64 * KB, 8 * KB, 256)
        assert policy.packets_per_message(8 * KB) == 32
        assert policy.packets_per_message(300) == 2

    def test_invalid_ordering(self):
        with pytest.raises(CollectiveError):
            GranularityPolicy(4 * KB, 8 * KB, 256)


class TestSram:
    def test_partitioning_heuristic_covers_all_phases(self, torus_444):
        plan = plan_collective("all_reduce", torus_444)
        sizes = partition_sram(plan, AceConfig(), NetworkConfig())
        assert set(sizes) == {"phase0", "phase1", "phase2", "phase3", "terminal"}
        assert sum(sizes.values()) == AceConfig().sram_bytes
        # The local phases see 8x the bandwidth of the inter-package phases,
        # so their partitions are larger.
        assert sizes["phase0"] > sizes["phase1"]

    def test_terminal_partition_mirrors_last_phase_weight(self, torus_444):
        plan = plan_collective("all_reduce", torus_444)
        sizes = partition_sram(plan, AceConfig(), NetworkConfig())
        assert sizes["terminal"] > 0

    def test_scratchpad_capacity_tracking(self, torus_444):
        plan = plan_collective("all_reduce", torus_444)
        sram = SramScratchpad.for_plan(plan, AceConfig(), NetworkConfig())
        part = sram.phase_partition(0)
        part.allocate(64 * KB)
        assert sram.used_bytes == 64 * KB
        part.release(64 * KB)
        assert sram.free_bytes == sram.capacity_bytes

    def test_overflow_and_underflow_rejected(self, torus_444):
        plan = plan_collective("all_reduce", torus_444)
        sram = SramScratchpad.for_plan(plan, AceConfig(), NetworkConfig())
        part = sram.terminal_partition()
        with pytest.raises(ResourceError):
            part.allocate(part.capacity_bytes + 1)
        with pytest.raises(ResourceError):
            part.release(1)

    def test_can_admit_chunk(self, torus_444):
        plan = plan_collective("all_reduce", torus_444)
        sram = SramScratchpad.for_plan(plan, AceConfig(), NetworkConfig())
        assert sram.can_admit_chunk(64 * KB, 0)
        assert not sram.can_admit_chunk(8 * MB, 0)


class TestFsmPool:
    def test_program_dedicated_assignment(self):
        pool = FsmPool(16)
        assignment = pool.program(["phase0", "phase1", "phase2", "phase3", "all_to_all"])
        assert sum(len(v) for v in assignment.values()) == 16
        for fsms in assignment.values():
            assert fsms  # every phase has at least one FSM

    def test_program_shared_when_fewer_fsms_than_phases(self):
        pool = FsmPool(2)
        assignment = pool.program(["phase0", "phase1", "phase2", "phase3"])
        for fsms in assignment.values():
            assert fsms == [0, 1]

    def test_acquire_serializes_on_busy_fsms(self):
        pool = FsmPool(1)
        pool.program(["phase0"])
        _, s1, f1 = pool.acquire("phase0", 0.0, 10.0)
        _, s2, _ = pool.acquire("phase0", 0.0, 10.0)
        assert s2 == pytest.approx(f1)

    def test_acquire_unprogrammed_phase_rejected(self):
        pool = FsmPool(4)
        pool.program(["phase0"])
        with pytest.raises(SchedulingError):
            pool.acquire("phase9", 0.0, 1.0)

    def test_utilization(self):
        pool = FsmPool(2)
        pool.program(["phase0"])
        pool.acquire("phase0", 0.0, 10.0)
        assert pool.utilization(10.0) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "num_fsms,phases",
        [(2, ["phase0", "phase1", "phase2", "phase3"]), (4, ["phase0", "phase1"])],
        ids=["shared", "dedicated"],
    )
    def test_busy_time_counts_each_fsm_once(self, num_fsms, phases):
        pool = FsmPool(num_fsms)
        pool.program(phases)
        pool.acquire(phases[0], 0.0, 10.0)
        pool.acquire(phases[-1], 0.0, 6.0)
        assert pool.total_busy_time == pytest.approx(16.0)
        assert pool.utilization(20.0) == pytest.approx(16.0 / (20.0 * num_fsms))


class TestAluArray:
    def test_throughput_exceeds_network_injection(self):
        alus = AluArray(AceConfig())
        # ALU streaming rate comfortably exceeds the 470 GB/s injection cap
        # divided by the reduce share, so reductions are not the bottleneck.
        assert alus.throughput_gbps > 300.0

    def test_reduce_accounts_bytes(self):
        alus = AluArray(AceConfig())
        alus.reduce(1000.0)
        assert alus.reduced_bytes == 1000.0
        with pytest.raises(ResourceError):
            alus.reduce(-1.0)


class TestAceEngine:
    def _engine(self, torus):
        engine = AceEngine(make_system("ace"))
        engine.configure(plan_collective("all_reduce", torus))
        return engine

    def test_requires_configuration(self):
        engine = AceEngine(make_system("ace"))
        with pytest.raises(SchedulingError):
            engine.ingress(64 * KB, 0.0)

    def test_ingress_limited_by_dma_memory_slice(self, torus_444):
        engine = self._engine(torus_444)
        finish = engine.ingress(128 * KB, 0.0)
        # 128 KB at the 128 GB/s ACE DMA slice is ~1 us.
        assert finish == pytest.approx(1024.0, rel=0.1)
        assert engine.memory_read_bytes == 128 * KB

    def test_process_phase_occupies_fsm(self, torus_444):
        engine = self._engine(torus_444)
        f1 = engine.process_phase("phase0", 48 * KB, 48 * KB, 0.0, 3, 0.0)
        assert f1 > 0.0
        assert engine.alus.reduced_bytes == 48 * KB

    def test_egress_writes_memory(self, torus_444):
        engine = self._engine(torus_444)
        engine.egress(64 * KB, 0.0)
        assert engine.memory_write_bytes == 64 * KB

    def test_chunk_capacity_matches_sram(self, torus_444):
        engine = self._engine(torus_444)
        assert engine.chunk_capacity() == 64

    def test_stats_and_reset(self, torus_444):
        engine = self._engine(torus_444)
        engine.ingress(64 * KB, 0.0)
        assert engine.memory_read_bytes == 64 * KB
        engine.reset()
        assert engine.memory_read_bytes == 0.0


class TestAreaPower:
    def test_table4_totals_reproduced(self):
        model = AceAreaPowerModel(AceConfig())
        total = model.total()
        assert total.area_um2 == pytest.approx(5_290_695.0, rel=0.02)
        assert total.power_mw == pytest.approx(4_231.9, rel=0.02)

    def test_component_breakdown(self):
        model = AceAreaPowerModel(AceConfig())
        rows = model.as_table()
        names = [r["component"] for r in rows]
        assert "SRAM banks" in names and "Control unit" in names
        sram_row = next(r for r in rows if r["component"] == "SRAM banks")
        assert sram_row["area_um2"] == pytest.approx(5_113_696.0)

    def test_overhead_below_two_percent(self):
        model = AceAreaPowerModel(AceConfig())
        assert model.area_overhead_fraction() < 0.02
        assert model.power_overhead_fraction() < 0.02

    def test_scaling_with_sram_size(self):
        small = AceAreaPowerModel(AceConfig(sram_bytes=1 * MB)).total()
        big = AceAreaPowerModel(AceConfig(sram_bytes=8 * MB)).total()
        assert big.area_um2 > small.area_um2
        assert big.power_mw > small.power_mw
