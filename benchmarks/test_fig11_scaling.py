"""Benchmark: Fig. 11a/11b — scaling of compute, exposed comm and ACE speedups."""

from repro.analysis.report import format_table
from repro.experiments.fig11_scaling import run_fig11


def test_fig11_scaling(benchmark, figure_kwargs):
    data = benchmark.pedantic(run_fig11, kwargs=figure_kwargs("fig11"), rounds=1, iterations=1)
    print()
    print(
        format_table(
            data["breakdown"],
            title="Fig. 11a — total compute vs exposed communication (2 iterations)",
        )
    )
    print()
    print(format_table(data["speedups"], title="Fig. 11b — ACE speedup over the baselines"))

    # ACE never loses to the best baseline, and its advantage does not shrink
    # as the platform grows (Fig. 11b trend).
    for row in data["speedups"]:
        assert row["speedup_vs_best_baseline"] >= 0.99
    by_workload = {}
    for row in data["speedups"]:
        by_workload.setdefault(row["workload"], []).append(row)
    for rows in by_workload.values():
        rows.sort(key=lambda r: r["npus"])
        assert rows[-1]["speedup_vs_best_baseline"] >= rows[0]["speedup_vs_best_baseline"] * 0.95

    # Iteration-time ordering at every grid point: Ideal <= ACE <= every
    # baseline (Fig. 11a) — not just "the harness ran".
    breakdown = data["breakdown"]
    by_point = {}
    for row in breakdown:
        by_point.setdefault((row["workload"], row["npus"]), {})[row["system"]] = row
    for (workload, npus), systems in by_point.items():
        ideal = systems["Ideal"]["total_time_us"]
        ace = systems["ACE"]["total_time_us"]
        assert ideal <= ace * 1.001, (workload, npus)
        for name, row in systems.items():
            if name not in ("Ideal", "ACE"):
                assert ace <= row["total_time_us"] * 1.001, (workload, npus, name)

    # Fig. 11a trend: exposed communication grows with the platform size for
    # the overlap-capable baselines.
    for workload in {r["workload"] for r in breakdown}:
        comp_opt = sorted(
            (r for r in breakdown if r["workload"] == workload and r["system"] == "BaselineCompOpt"),
            key=lambda r: r["npus"],
        )
        assert comp_opt[-1]["exposed_comm_us"] >= comp_opt[0]["exposed_comm_us"] * 0.99
