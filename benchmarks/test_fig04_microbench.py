"""Benchmark: Fig. 4 — all-reduce slowdown under compute/memory contention."""

from repro.analysis.report import format_table
from repro.experiments.fig4_microbench import run_fig4


def test_fig4_microbench(benchmark, figure_kwargs):
    rows = benchmark.pedantic(run_fig4, kwargs=figure_kwargs("fig4"), rounds=1, iterations=1)
    print()
    print(
        format_table(
            rows,
            ["case", "compute_kind", "allreduce_mb", "standalone_us", "overlapped_us", "slowdown"],
            title="Fig. 4 — all-reduce slowdown when overlapped with compute kernels",
        )
    )
    # The paper's qualitative findings: contention always slows the collective
    # and memory-hungry kernels / bigger kernels hurt more.
    by_case = {r["case"]: r["slowdown"] for r in rows}
    assert all(s >= 0.99 for s in by_case.values())
    assert by_case["GEMM4000+AR10MB"] >= by_case["GEMM1000+AR10MB"]
    assert by_case["EmbLookup10000+AR10MB"] >= by_case["EmbLookup1000+AR10MB"]
