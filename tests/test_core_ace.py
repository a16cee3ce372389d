"""ACE micro-architecture: FSMs, ALU throughput, engine, area/power.

The FSM pool and the engine's DMAs are booked by :class:`AceEndpoint`, so
these tests drive it.
"""

import pytest

from repro.collectives.planner import plan_collective
from repro.config.presets import make_system
from repro.config.system import AceConfig
from repro.core.area_power import AceAreaPowerModel
from repro.endpoint import AceEndpoint
from repro.endpoint.base import PhaseWork
from repro.errors import SchedulingError
from repro.units import KB, MB


def _endpoint(torus, **ace_fields) -> AceEndpoint:
    endpoint = AceEndpoint(make_system("ace", ace=AceConfig(**ace_fields)))
    endpoint.configure(plan_collective("all_reduce", torus))
    return endpoint


def _process(endpoint: AceEndpoint, work: PhaseWork, earliest_start: float = 0.0) -> float:
    """One chunk-phase of ``work`` through ``endpoint``, as the executor books it."""
    return endpoint.process_phase(endpoint.phase_cost(work), earliest_start)


def _work(phase_name="phase0", send=48 * KB, reduce=48 * KB, steps=3) -> PhaseWork:
    return PhaseWork(
        phase_index=0,
        phase_name=phase_name,
        dimension="local",
        kind="reduce_scatter",
        steps=steps,
        send_bytes=send,
        reduce_bytes=reduce,
        forward_bytes=0.0,
        is_first=True,
        is_last=False,
    )


class TestFsmPool:
    """FSMs programmed per phase (Section IV-F), timed through the endpoint.

    The 4x4x4 all-reduce plan has four phases; ``configure`` also programs
    the all-to-all, so five phases share the FSMs.
    """

    PHASES = ["phase0", "phase1", "phase2", "phase3", "all_to_all"]

    def test_program_dedicated_assignment(self, torus_444):
        duration = _process(_endpoint(torus_444), _work())
        endpoint = _endpoint(torus_444)
        # 16 FSMs dealt round-robin to 5 phases: 4 for phase0, 3 for each of
        # the rest.  Each phase's group runs that many chunk-phases at once
        # and queues the next, whatever the other groups are doing.
        for phase, size in zip(self.PHASES, (4, 3, 3, 3, 3)):
            finishes = [_process(endpoint, _work(phase)) for _ in range(size + 1)]
            assert finishes == [pytest.approx(duration)] * size + [pytest.approx(2 * duration)]

    def test_program_shared_when_fewer_fsms_than_phases(self, torus_444):
        endpoint = _endpoint(torus_444, num_fsms=2)
        duration = _process(endpoint, _work("phase0"))
        # Phases time-share the two FSMs: a third chunk-phase waits.
        assert _process(endpoint, _work("phase3")) == pytest.approx(duration)
        assert _process(endpoint, _work("phase1")) == pytest.approx(2 * duration)

    def test_acquire_serializes_on_busy_fsms(self, torus_444):
        endpoint = _endpoint(torus_444, num_fsms=1)
        first = _process(endpoint, _work())
        assert _process(endpoint, _work()) == pytest.approx(2 * first)

    def test_acquire_unprogrammed_phase_rejected(self, torus_444):
        endpoint = _endpoint(torus_444)
        # The phase's cost is prepared once per stage-table row, so an
        # unprogrammed phase fails there, before any chunk books an FSM.
        with pytest.raises(SchedulingError, match="phase9"):
            endpoint.phase_cost(_work("phase9"))


class TestAluArray:
    def test_throughput_exceeds_network_injection(self):
        # ALU streaming rate comfortably exceeds the 470 GB/s injection cap
        # divided by the reduce share, so reductions are not the bottleneck.
        assert AceConfig().alu_throughput_gbps > 300.0


class TestAceEngine:
    """The engine's DMAs, FSM occupancy and SRAM capacity, through the endpoint."""

    def test_ingress_limited_by_dma_memory_slice(self, torus_444):
        endpoint = _endpoint(torus_444)
        finish = endpoint.ingress(128 * KB, 0.0)
        # 128 KB at the 128 GB/s ACE DMA slice is ~1 us.
        assert finish == pytest.approx(1024.0, rel=0.1)
        assert endpoint.memory_read_bytes == 128 * KB

    def test_process_phase_occupies_fsm(self, torus_444):
        endpoint = _endpoint(torus_444)
        f1 = _process(endpoint, _work())
        assert f1 > 0.0
        # The FSM stays occupied for the slower of the SRAM stream (bytes
        # sent plus reduced) and the ALU stream (bytes reduced), plus its
        # control overhead.
        ace = endpoint.system.ace
        sram = 96 * KB / ace.sram_bandwidth_gbps
        alu = 48 * KB / ace.alu_throughput_gbps
        control = 3 * endpoint.PHASE_CONTROL_OVERHEAD_CYCLES * 1e3 / ace.frequency_mhz
        assert f1 == pytest.approx(max(sram, alu) + control)

    def test_egress_writes_memory(self, torus_444):
        endpoint = _endpoint(torus_444)
        endpoint.egress(64 * KB, 0.0)
        assert endpoint.memory_write_bytes == 64 * KB

    def test_chunk_capacity_matches_sram(self, torus_444):
        endpoint = _endpoint(torus_444)
        assert endpoint.chunk_capacity() == 64


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
