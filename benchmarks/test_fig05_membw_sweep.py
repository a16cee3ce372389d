"""Benchmark: Fig. 5 — network BW vs memory BW for communication (+ Sec. VI-A)."""

from repro.analysis.report import format_table
from repro.experiments.fig5_membw_sweep import run_fig5, run_section6a_analysis


def test_fig5_memory_bandwidth_sweep(benchmark, figure_kwargs):
    rows = benchmark.pedantic(run_fig5, kwargs=figure_kwargs("fig5"), rounds=1, iterations=1)
    print()
    print(
        format_table(
            rows,
            [
                "npus",
                "memory_bw_gbps",
                "ideal_net_bw_gbps",
                "baseline_net_bw_gbps",
                "ace_net_bw_gbps",
                "baseline_frac_of_ideal",
                "ace_frac_of_ideal",
            ],
            title="Fig. 5 — achieved network BW vs memory BW for communication",
        )
    )
    print()
    print(
        format_table(
            run_section6a_analysis(),
            title="Section VI-A — analytical memory reads per injected byte",
        )
    )
    # ACE at 128 GB/s beats the baseline at 128 GB/s everywhere, and on the
    # 64-NPU platform (the ~300 GB/s regime of Fig. 5) it reaches ~90% of the
    # ideal network drive; the baseline needs ~450 GB/s to get close.
    at_128 = [r for r in rows if r["memory_bw_gbps"] == 128.0]
    assert all(r["baseline_frac_of_ideal"] < r["ace_frac_of_ideal"] for r in at_128)
    assert all(r["ace_frac_of_ideal"] > 0.85 for r in at_128 if r["npus"] == 64)
    at_450 = [r for r in rows if r["memory_bw_gbps"] == 450.0]
    assert all(r["baseline_frac_of_ideal"] > 0.7 for r in at_450 if r["npus"] == 64)
