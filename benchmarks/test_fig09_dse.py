"""Benchmark: Fig. 9a/9b — ACE design-space exploration and utilization."""

from repro.analysis.report import format_table
from repro.experiments.fig9_dse import run_fig9a, run_fig9b


def test_fig9a_design_space(benchmark, figure_kwargs):
    rows = benchmark.pedantic(run_fig9a, kwargs=figure_kwargs("fig9a"), rounds=1, iterations=1)
    print()
    print(
        format_table(
            rows,
            title="Fig. 9a — ACE performance vs SRAM size / #FSMs (normalised to 4MB/16FSM)",
        )
    )
    reference = next(r for r in rows if r["sram_mb"] == 4 and r["num_fsms"] == 16)
    assert reference["performance_vs_reference"] == 1.0
    # Larger configurations show diminishing returns (within ~1% of the
    # selected point), which is why the paper ships 4 MB / 16 FSMs.
    for row in rows:
        if row["sram_mb"] >= 4 and row["num_fsms"] >= 16:
            assert row["performance_vs_reference"] <= 1.07


def test_fig9b_ace_utilization(benchmark, figure_kwargs):
    rows = benchmark.pedantic(run_fig9b, kwargs=figure_kwargs("fig9b"), rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Fig. 9b — ACE utilization, forward vs backward pass"))
    for row in rows:
        # Communication (and hence ACE activity) concentrates in back-propagation.
        assert row["ace_util_backward"] >= row["ace_util_forward"]
