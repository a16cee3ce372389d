"""Benchmark: Fig. 6 — network BW vs number of SMs used for communication."""

from repro.analysis.report import format_table
from repro.experiments.fig6_sm_sweep import run_fig6


def test_fig6_sm_sweep(benchmark, figure_kwargs):
    rows = benchmark.pedantic(run_fig6, kwargs=figure_kwargs("fig6"), rounds=1, iterations=1)
    print()
    print(
        format_table(
            rows,
            ["npus", "comm_sms", "baseline_net_bw_gbps", "memory_read_bw_gbps"],
            title="Fig. 6 — achieved network BW vs #SMs for communication (baseline)",
        )
    )
    # More SMs never hurt, and the gain flattens once the memory/network path
    # (not the SMs) becomes the bottleneck (~6 SMs in the paper).
    for npus in sorted({r["npus"] for r in rows}):
        series = sorted((r for r in rows if r["npus"] == npus), key=lambda r: r["comm_sms"])
        bws = [r["baseline_net_bw_gbps"] for r in series]
        assert all(b2 >= b1 * 0.99 for b1, b2 in zip(bws, bws[1:]))
        assert bws[-1] - bws[-2] <= bws[1] - bws[0] + 1e-6
