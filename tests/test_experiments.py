"""Experiment harnesses (small sweeps) and integration-level paper claims."""

import pytest

from repro.experiments.fig4_microbench import run_fig4
from repro.experiments.fig5_membw_sweep import run_fig5, run_section6a_analysis
from repro.experiments.fig6_sm_sweep import run_fig6
from repro.experiments.fig9_dse import run_fig9a, run_fig9b
from repro.experiments.fig10_overlap import run_fig10
from repro.experiments.fig11_scaling import run_fig11
from repro.experiments.fig12_dlrm_opt import run_fig12
from repro.experiments.table4_area import run_table4
from repro.errors import ConfigurationError
from repro.experiments.common import chunks_for, grid_jobs, run_grid, topology_for
from repro.units import KB, MB


class TestFig4:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_fig4(chunk_bytes=256 * KB, dlrm_replay=False)

    def test_all_cases_present(self, rows):
        assert len(rows) == 10

    def test_slowdowns_at_least_one(self, rows):
        assert all(r["slowdown"] >= 0.99 for r in rows)

    def test_bigger_gemm_slows_allreduce_more(self, rows):
        by_case = {r["case"]: r["slowdown"] for r in rows}
        assert by_case["GEMM4000+AR10MB"] >= by_case["GEMM1000+AR10MB"]

    def test_bigger_lookup_batch_slows_allreduce_more(self, rows):
        by_case = {r["case"]: r["slowdown"] for r in rows}
        assert by_case["EmbLookup10000+AR10MB"] >= by_case["EmbLookup1000+AR10MB"]


class TestFig5and6:
    def test_fig5_rows_cover_both_sizes(self):
        rows = run_fig5(
            points=(64.0, 128.0, 256.0, 450.0, 900.0),
            sizes=(16, 64),
            payload_bytes=16 * MB,
            chunk_bytes=256 * KB,
        )
        assert {int(r["npus"]) for r in rows} == {16, 64}
        for row in rows:
            assert row["ideal_net_bw_gbps"] >= row["baseline_net_bw_gbps"] - 1e-6

    def test_section6a_reduction_factor(self):
        rows = run_section6a_analysis(sizes=(64,))
        assert rows[0]["memory_bw_reduction"] == pytest.approx(3.375, rel=1e-3)

    def test_fig6_more_sms_never_hurt(self):
        rows = run_fig6(
            points=(1, 2, 4, 6, 16), sizes=(16,), payload_bytes=16 * MB, chunk_bytes=256 * KB
        )
        ordered = sorted(rows, key=lambda r: r["comm_sms"])
        bws = [r["baseline_net_bw_gbps"] for r in ordered]
        assert all(b2 >= b1 * 0.99 for b1, b2 in zip(bws, bws[1:]))


class TestFig9:
    def test_dse_reference_point_is_best_or_tied(self):
        rows = run_fig9a(
            points=((0.125, 1), (0.5, 2), (4, 16), (8, 20)), sizes=(16,), payload_bytes=16 * MB
        )
        reference = next(r for r in rows if r["sram_mb"] == 4 and r["num_fsms"] == 16)
        assert reference["performance_vs_reference"] == pytest.approx(1.0)
        assert all(r["performance_vs_reference"] <= 1.001 for r in rows)

    def test_utilization_higher_in_backward_pass(self):
        rows = run_fig9b(workloads=("resnet50",), num_npus=16, chunk_bytes=128 * KB)
        assert rows[0]["ace_util_backward"] > rows[0]["ace_util_forward"]


class TestFig10and11:
    @pytest.fixture(scope="class")
    def fig11(self):
        return run_fig11(workloads=("dlrm",), sizes=(16, 64), chunk_bytes=512 * KB)

    def test_breakdown_rows_complete(self, fig11):
        rows = fig11["breakdown"]
        assert len(rows) == 2 * 5  # 2 sizes x 5 systems
        assert all(r["total_time_us"] > 0 for r in rows)

    def test_ace_speedup_at_least_one(self, fig11):
        for row in fig11["speedups"]:
            assert row["speedup_vs_best_baseline"] >= 0.99

    def test_speedup_grows_with_scale(self, fig11):
        by_size = {r["npus"]: r["speedup_vs_best_baseline"] for r in fig11["speedups"]}
        assert by_size[64] >= by_size[16] * 0.98

    def test_fig10_summary(self):
        rows = run_fig10(workloads=("dlrm",), num_npus=16, chunk_bytes=512 * KB)
        systems = {r["system"] for r in rows}
        assert systems == {"BaselineCommOpt", "BaselineCompOpt", "ACE", "Ideal"}
        ace_row = next(r for r in rows if r["system"] == "ACE")
        assert ace_row["fraction_of_ideal"] > 0.8
        assert ace_row["timeline_windows"] > 0


class TestFig12:
    def test_optimized_loop_helps_ace_more_than_baseline(self):
        rows = run_fig12(num_npus=16, chunk_bytes={"dlrm": 512 * KB})
        improvements = {
            r["system"]: r["total_time_us"] for r in rows if r["loop"] == "improvement"
        }
        assert improvements["ACE"] >= 1.0
        assert improvements["ACE"] >= improvements["BaselineCompOpt"] * 0.99


class TestTable4:
    def test_components_and_overhead(self):
        rows = run_table4()
        total = next(r for r in rows if r["component"] == "ACE (Total)")
        overhead = rows[-1]
        assert total["area_um2"] == pytest.approx(5.29e6, rel=0.03)
        assert overhead["area_um2"] < 2.0  # percent
        assert overhead["power_mw"] < 2.0  # percent


class TestCommonHelpers:
    def test_topology_for(self):
        assert topology_for(128).num_nodes == 128

    def test_run_grid_small(self):
        results = run_grid(
            systems=("ace", "ideal"), workloads=("resnet50",), sizes=(16,), chunk_bytes=128 * KB
        )
        assert len(results) == 2
        assert {r.system_name for r in results} == {"ACE", "Ideal"}

    def test_chunk_bytes_is_one_size_or_a_map_over_workloads(self):
        both = ("resnet50", "gnmt")
        assert chunks_for(None, both) == {"resnet50": None, "gnmt": None}
        assert chunks_for(128 * KB, both) == {"resnet50": 128 * KB, "gnmt": 128 * KB}
        # A workload the map leaves out runs the preset's chunk.
        assert chunks_for({"gnmt": MB}, both) == {"resnet50": None, "gnmt": MB}
        jobs = grid_jobs(
            systems=("ace",), workloads=both, sizes=(16,), chunk_bytes={"gnmt": MB}
        )
        assert [job.chunk_bytes for job in jobs] == [None, MB]

    @pytest.mark.parametrize(
        "call",
        [
            lambda: grid_jobs(workloads=("resnet50",), chunk_bytes={"resnet5": 128 * KB}),
            lambda: run_fig9b(workloads=("dlrm",), chunk_bytes={"resnet50": 128 * KB}),
            lambda: run_fig10(workloads=("dlrm",), chunk_bytes={"gnmt": MB}),
            lambda: run_fig11(workloads=("dlrm",), chunk_bytes={"resnet50": 128 * KB}),
            lambda: run_fig12(chunk_bytes={"gnmt": MB}),
        ],
        ids=["grid_jobs", "fig9b", "fig10", "fig11", "fig12"],
    )
    def test_chunk_map_naming_a_workload_not_run_is_rejected(self, call):
        with pytest.raises(ConfigurationError, match="name no workload run here") as excinfo:
            call()
        assert excinfo.value.field == "chunk_bytes"
