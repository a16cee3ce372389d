"""ACE micro-architecture: FSMs, ALU throughput, engine, area/power."""

import pytest

from repro.collectives.planner import plan_collective
from repro.config.presets import make_system
from repro.config.system import AceConfig
from repro.core.area_power import AceAreaPowerModel
from repro.core.engine import AceEngine
from repro.core.fsm import FsmPool
from repro.errors import SchedulingError
from repro.units import KB, MB


class TestFsmPool:
    def test_program_dedicated_assignment(self):
        pool = FsmPool(16)
        pools = pool.program(["phase0", "phase1", "phase2", "phase3", "all_to_all"])
        # Every phase has its own group of at least one FSM; all 16 are used.
        assert len({id(slots) for slots in pools.values()}) == 5
        assert sum(slots.num_slots for slots in pools.values()) == 16
        assert min(slots.num_slots for slots in pools.values()) >= 1

    def test_program_shared_when_fewer_fsms_than_phases(self):
        pool = FsmPool(2)
        pools = pool.program(["phase0", "phase1", "phase2", "phase3"])
        shared = pools["phase0"]
        assert shared.num_slots == 2
        assert all(slots is shared for slots in pools.values())
        # Phases time-share the two FSMs: a third chunk-phase waits.
        pool.acquire("phase0", 0.0, 10.0)
        pool.acquire("phase3", 0.0, 10.0)
        assert pool.acquire("phase1", 0.0, 10.0)[1] == 10.0

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


class TestAluArray:
    def test_throughput_exceeds_network_injection(self):
        # ALU streaming rate comfortably exceeds the 470 GB/s injection cap
        # divided by the reduce share, so reductions are not the bottleneck.
        assert AceConfig().alu_throughput_gbps > 300.0


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
        # The FSM stays occupied for the slower of the SRAM stream (bytes
        # sent plus reduced) and the ALU stream (bytes reduced), plus its
        # control overhead.
        ace = engine.ace
        sram = 96 * KB / ace.sram_bandwidth_gbps
        alu = 48 * KB / ace.alu_throughput_gbps
        control = 3 * engine.PHASE_CONTROL_OVERHEAD_CYCLES * 1e3 / ace.frequency_mhz
        assert f1 == pytest.approx(max(sram, alu) + control)

    def test_egress_writes_memory(self, torus_444):
        engine = self._engine(torus_444)
        engine.egress(64 * KB, 0.0)
        assert engine.memory_write_bytes == 64 * KB

    def test_chunk_capacity_matches_sram(self, torus_444):
        engine = self._engine(torus_444)
        assert engine.chunk_capacity() == 64


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
