"""Bandwidth analyses, speedup tables and report formatting."""

import pytest

from repro.analysis.bandwidth import (
    analytical_memory_traffic,
    measure_network_drive,
    memory_bw_sweep,
    sm_sweep,
)
from repro.analysis.report import format_table
from repro.analysis.speedup import compute_speedups
from repro.config.presets import make_system
from repro.errors import SimulationError
from repro.network.topology import Torus3D
from repro.training.results import TrainingResult
from repro.units import KB, MB


class TestAnalyticalMemoryTraffic:
    def test_4x4x4_matches_paper(self, torus_444):
        req = analytical_memory_traffic(torus_444)
        assert req.injected_bytes_per_payload_byte == pytest.approx(2.25)
        assert req.baseline_reads_per_injected_byte == pytest.approx(1.5)
        assert req.ace_reads_per_injected_byte == pytest.approx(1 / 2.25)
        # Baseline needs ~3.4x more read bandwidth for the same network drive.
        assert req.memory_bw_reduction == pytest.approx(3.375, rel=1e-3)

    def test_required_bandwidth_projection(self, torus_444):
        # Driving 300 GB/s of injection takes 450 GB/s of reads on the
        # baseline and ~133 GB/s on ACE (Section VI-A).
        req = analytical_memory_traffic(torus_444)
        assert 300.0 * req.baseline_reads_per_injected_byte == pytest.approx(450.0)
        assert 300.0 * req.ace_reads_per_injected_byte == pytest.approx(133.3, rel=1e-2)

    @pytest.mark.parametrize("shape", [(4, 2, 2), (4, 4, 2), (4, 8, 4)])
    def test_reduction_exceeds_3x_for_paper_sizes(self, shape):
        req = analytical_memory_traffic(Torus3D(*shape))
        assert req.memory_bw_reduction >= 3.0


class TestNetworkDrive:
    def test_measured_baseline_ratio_matches_analysis(self, torus_422):
        result = measure_network_drive(
            make_system("baseline_comm_opt"), torus_422, 8 * MB, chunk_bytes=256 * KB
        )
        ratio = result.memory_read_bytes / result.bytes_injected
        assert ratio == pytest.approx(1.5, rel=0.02)
        assert result.achieved_bandwidth_gbps > 0

    def test_ideal_outperforms_comp_opt(self, torus_422):
        ideal = measure_network_drive(make_system("ideal"), torus_422, 8 * MB, chunk_bytes=256 * KB)
        comp = measure_network_drive(
            make_system("baseline_comp_opt"), torus_422, 8 * MB, chunk_bytes=256 * KB
        )
        assert ideal.achieved_bandwidth_gbps > comp.achieved_bandwidth_gbps

    def test_memory_bw_sweep_is_monotonic_for_baseline(self, torus_422):
        rows = memory_bw_sweep(torus_422, [64.0, 450.0], payload_bytes=8 * MB, chunk_bytes=256 * KB)
        assert rows[0]["baseline_net_bw_gbps"] <= rows[1]["baseline_net_bw_gbps"]
        # ACE reaches a higher fraction of ideal than the baseline at low BW.
        assert rows[0]["ace_frac_of_ideal"] > rows[0]["baseline_frac_of_ideal"]

    def test_ace_reaches_90pct_of_ideal_at_128gbps(self, torus_444):
        rows = memory_bw_sweep(torus_444, [128.0], payload_bytes=16 * MB, chunk_bytes=128 * KB)
        assert rows[0]["ace_frac_of_ideal"] > 0.9

    def test_baseline_needs_about_450gbps(self, torus_444):
        rows = memory_bw_sweep(
            torus_444, [128.0, 450.0], payload_bytes=16 * MB, chunk_bytes=128 * KB
        )
        assert rows[0]["baseline_frac_of_ideal"] < 0.5
        assert rows[1]["baseline_frac_of_ideal"] > 0.75

    def test_sm_sweep_shows_diminishing_returns(self, torus_422):
        rows = sm_sweep(torus_422, [1, 6, 16], payload_bytes=8 * MB, chunk_bytes=256 * KB)
        one, six, sixteen = (r["baseline_net_bw_gbps"] for r in rows)
        assert one < six
        # Going from 6 to 16 SMs buys far less than going from 1 to 6:
        # around 6 SMs the memory/network path becomes the bottleneck (Fig. 6).
        assert (sixteen - six) < 0.5 * (six - one)


class TestSpeedups:
    def _result(self, system, time_ns):
        return TrainingResult(system, "wl", 16, 2, time_ns, time_ns * 0.7, time_ns * 0.3, 0.0, time_ns)

    def test_speedup_table(self):
        results = [
            self._result("ACE", 100.0),
            self._result("BaselineCompOpt", 130.0),
            self._result("BaselineCommOpt", 200.0),
            self._result("Ideal", 90.0),
        ]
        tables = compute_speedups(results)
        assert len(tables) == 1
        table = tables[0]
        assert table.speedups["BaselineCompOpt"] == pytest.approx(1.3)
        assert table.speedups["BaselineCommOpt"] == pytest.approx(2.0)
        assert table.best_baseline_speedup() == pytest.approx(1.3)
        assert table.fraction_of_ideal["ACE"] == pytest.approx(0.9)

    def test_missing_ace_rejected(self):
        with pytest.raises(SimulationError):
            compute_speedups([self._result("BaselineCompOpt", 100.0)])


class TestReport:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 3.25}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])
