"""Benchmark: Fig. 10 — compute/communication overlap for 2 training iterations."""

from repro.analysis.report import format_table
from repro.experiments.fig10_overlap import run_fig10


def test_fig10_overlap(benchmark, figure_kwargs):
    rows = benchmark.pedantic(run_fig10, kwargs=figure_kwargs("fig10"), rounds=1, iterations=1)
    print()
    print(
        format_table(
            rows,
            title="Fig. 10 — compute/communication overlap summary (2 iterations)",
        )
    )
    by_key = {(r["workload"], r["system"]): r for r in rows}
    workloads = {r["workload"] for r in rows}
    for workload in workloads:
        ideal = by_key[(workload, "Ideal")]
        ace = by_key[(workload, "ACE")]
        comm_opt = by_key[(workload, "BaselineCommOpt")]
        comp_opt = by_key[(workload, "BaselineCompOpt")]
        # Iteration-time ordering of Fig. 10: Ideal <= ACE <= best baseline.
        assert ideal["iteration_time_us"] <= ace["iteration_time_us"] * 1.001
        assert ace["iteration_time_us"] <= min(
            comm_opt["iteration_time_us"], comp_opt["iteration_time_us"]
        ) * 1.001
        # ACE tracks the ideal system closely.
        assert ace["fraction_of_ideal"] > 0.85
        # Optimising for compute beats optimising for communication (Fig. 10/11).
        assert comp_opt["iteration_time_us"] <= comm_opt["iteration_time_us"] * 1.001
