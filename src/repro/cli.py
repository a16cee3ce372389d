"""``python -m repro`` — the unified command-line front door.

Subcommands:

* ``list`` — every scenario manifest in the scenario directory, with its
  compiled job count.
* ``validate`` — load, schema-check and compile every manifest (or the named
  ones); exits non-zero with every flaw listed.
* ``run <scenario>`` — compile a manifest into its SimJob batch, execute it
  through the shared :func:`~repro.runner.default_runner` (honouring
  ``REPRO_WORKERS`` / ``REPRO_CACHE_DIR``), check the declared invariants,
  and write the uniform machine-readable report.
* ``expand <scenario>`` — compile a manifest (``grid`` axes included) and
  print every expanded job spec without running anything; the dry-run view
  of server-side grid templating.
* ``figures [figN|all]`` — regenerate the paper's figure/table harnesses.
* ``trace list|validate|convert`` — the trace-driven workload toolbox: list
  discovered operator-graph traces and registered device cost tables,
  validate + lower every shipped trace, and export any built-in workload as
  a trace JSON (the capture side of the round-trip acceptance test).
* ``bench`` — the backend-throughput benchmark behind ``BENCH_backends.json``
  (pruning stale result-cache entries first).

Every failure path prints a single ``error: ...`` line to stderr and returns
a non-zero exit code; tracebacks are reserved for genuine bugs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.errors import InvariantViolation, ReproError
from repro.runner import SweepRunner, cache_from_env, default_runner
from repro.scenarios import (
    Scenario,
    compile_scenario,
    default_scenario_dir,
    discover_scenarios,
    find_scenario,
    load_scenario_file,
    run_scenario,
    scenario_jobs,
)

#: Figure/table harness entry points for the ``figures`` subcommand.
FIGURE_MAINS = (
    "fig4",
    "fig5",
    "fig6",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "table4",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scenario manifests, figure reproduction and benchmarks "
        "for the ACE (ISCA 2021) simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--dir",
            dest="directory",
            default=None,
            help="scenario manifest directory (default: $REPRO_SCENARIOS_DIR "
            "or the repo's scenarios/)",
        )

    p_list = sub.add_parser("list", help="list every scenario manifest")
    add_dir(p_list)
    p_list.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    p_validate = sub.add_parser("validate", help="schema-check and compile manifests")
    add_dir(p_validate)
    p_validate.add_argument("names", nargs="*", help="scenario names (default: all)")

    p_run = sub.add_parser("run", help="run one scenario and write its report")
    add_dir(p_run)
    p_run.add_argument("name", help="scenario name (see 'repro list')")
    p_run.add_argument(
        "--out",
        default=None,
        help="report path (default: reports/<scenario>.json under the current directory)",
    )
    p_run.add_argument(
        "--workers",
        default=None,
        help="worker processes for this run (overrides REPRO_WORKERS)",
    )
    p_run.add_argument(
        "--no-invariants",
        action="store_true",
        help="report invariant failures without failing the run",
    )
    p_run.add_argument("--json", action="store_true", help="print the report JSON to stdout")

    p_expand = sub.add_parser(
        "expand",
        help="print a scenario's expanded job specs without running them",
    )
    add_dir(p_expand)
    p_expand.add_argument("name", help="scenario name (see 'repro list')")
    p_expand.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    p_figures = sub.add_parser("figures", help="regenerate paper figures/tables")
    p_figures.add_argument(
        "names",
        nargs="*",
        default=[],
        help=f"figures to regenerate: {', '.join(FIGURE_MAINS)} or 'all' (default)",
    )
    p_figures.add_argument(
        "--paper-scale",
        action="store_true",
        help="full paper-scale sweeps instead of the fast mode",
    )

    p_bench = sub.add_parser("bench", help="backend throughput benchmark (BENCH_backends.json)")
    p_bench.add_argument("--out", default="BENCH_backends.json", help="output JSON path")

    p_trace = sub.add_parser(
        "trace",
        help="operator-graph trace toolbox (list, validate, convert)",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    def add_trace_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--dir",
            dest="directory",
            default=None,
            help="trace directory (default: $REPRO_TRACES_DIR or the repo's traces/)",
        )

    p_trace_list = trace_sub.add_parser(
        "list", help="list discovered traces and registered device cost tables"
    )
    add_trace_dir(p_trace_list)
    p_trace_list.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    p_trace_validate = trace_sub.add_parser(
        "validate", help="validate traces and lower them through every cost table"
    )
    add_trace_dir(p_trace_validate)
    p_trace_validate.add_argument("names", nargs="*", help="trace names (default: all)")

    p_trace_convert = trace_sub.add_parser(
        "convert", help="export a built-in workload as an operator-graph trace"
    )
    p_trace_convert.add_argument("workload", help="built-in workload name (or 'all')")
    p_trace_convert.add_argument(
        "--name",
        default=None,
        help="trace name override (default: the workload's name)",
    )
    p_trace_convert.add_argument(
        "--out",
        default=None,
        help="output path, or a directory when converting 'all' "
        "(default: print to stdout)",
    )

    return parser


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _scenario_summary(scenario: Scenario) -> Dict[str, object]:
    jobs = scenario_jobs(scenario)
    figures = [s.spec["figure"] for s in scenario.suites if s.kind == "figure"]
    traces: List[str] = []
    for suite in scenario.suites:
        traces.extend(t for t in suite.spec.get("traces", ()) if t not in traces)
    return {
        "name": scenario.name,
        "suites": len(scenario.suites),
        "jobs": len(jobs),
        "figures": figures,
        "traces": traces,
        "invariants": len(scenario.invariants),
        "tags": list(scenario.tags),
        "description": scenario.description,
    }


def _cmd_list(args: argparse.Namespace) -> int:
    scenarios = discover_scenarios(args.directory)
    summaries = [_scenario_summary(scenario) for scenario in scenarios]
    if args.json:
        print(json.dumps(summaries, indent=2))
        return 0
    name_width = max([len(s["name"]) for s in summaries] + [8])
    print(f"{'scenario':<{name_width}}  {'jobs':>4}  {'inv':>3}  description")
    for summary in summaries:
        extras = f" (+{len(summary['figures'])} figure suite(s))" if summary["figures"] else ""
        if summary["traces"]:
            extras += f" (traces: {', '.join(summary['traces'])})"
        print(
            f"{summary['name']:<{name_width}}  {summary['jobs']:>4}  "
            f"{summary['invariants']:>3}  {summary['description']}{extras}"
        )
    print(f"\n{len(summaries)} scenario(s)")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    directory = Path(args.directory) if args.directory else default_scenario_dir()
    if not directory.is_dir():
        print(f"error: scenario directory {directory} does not exist", file=sys.stderr)
        return 1
    if args.names:
        paths = [directory / f"{name}.json" for name in args.names]
    else:
        paths = sorted(directory.glob("*.json"))
    if not paths:
        print("error: no scenario manifests found", file=sys.stderr)
        return 1
    # Every manifest is loaded and compiled independently so one broken file
    # cannot hide the flaws in the next; all failures are listed in one pass.
    failures: List[str] = []
    for path in paths:
        try:
            scenario = load_scenario_file(path)
            compiled = compile_scenario(scenario)
        except ReproError as exc:
            failures.append(str(exc))
            print(f"FAIL  {path.stem}: {exc}")
            continue
        jobs = sum(len(suite.jobs) for suite in compiled)
        figures = sum(1 for suite in compiled if suite.is_figure)
        detail = f"{len(compiled)} suite(s), {jobs} job(s)"
        if figures:
            detail += f", {figures} figure suite(s)"
        print(f"ok    {scenario.name}: {detail}, {len(scenario.invariants)} invariant(s)")
    if failures:
        print(f"\n{len(failures)} of {len(paths)} manifest(s) invalid", file=sys.stderr)
        return 1
    print(f"\nall {len(paths)} manifest(s) valid")
    return 0


def _print_run_summary(report: Dict[str, object]) -> None:
    from repro.analysis.report import format_table

    rows = report["results"]
    display: List[Dict[str, object]] = []
    columns: List[str] = []
    for row in rows:
        shown = {k: v for k, v in row.items() if k not in ("spec_hash", "from_cache")}
        shown["spec_hash"] = str(row["spec_hash"])[:12]
        display.append(shown)
        # Mixed-suite scenarios have heterogeneous rows; show every column.
        for key in shown:
            if key not in columns:
                columns.append(key)
    print(format_table(display, columns, title=f"scenario {report['scenario']} — results"))
    print()
    for record in report["invariants"]:
        status = "ok  " if record["ok"] else "FAIL"
        print(f"invariant {status}  {record['invariant']}: {record['detail']}")
    stats = report["runner"]
    if stats:
        print(
            f"\n{len(rows)} row(s) in {report['wall_s']:.2f}s wall "
            f"({stats.get('executed', 0)} executed, "
            f"{stats.get('cache_hits', 0)} cache hit(s))"
        )


def _write_report(report: Dict[str, object], out: Optional[str], scenario_name: str) -> Path:
    path = Path(out) if out else Path("reports") / f"{scenario_name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = find_scenario(args.name, args.directory)
    if args.workers is not None:
        # A bespoke worker count still shares the REPRO_CACHE_DIR-configured cache.
        runner = SweepRunner(workers=args.workers, cache=cache_from_env())
    else:
        runner = default_runner()
    violation: Optional[InvariantViolation] = None
    try:
        report = run_scenario(scenario, runner=runner, enforce=not args.no_invariants)
    except InvariantViolation as exc:
        report = getattr(exc, "report", None)
        if report is None:
            raise
        violation = exc
    path = _write_report(report, args.out, scenario.name)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_run_summary(report)
    print(f"report written to {path}")
    if violation is not None:
        print(f"error: {violation}", file=sys.stderr)
        return 1
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    scenario = find_scenario(args.name, args.directory)
    compiled = compile_scenario(scenario)
    if args.json:
        payload = [
            {
                "suite": index,
                "kind": suite.suite.kind,
                "jobs": [job.to_dict() for job in suite.jobs],
            }
            for index, suite in enumerate(compiled)
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    total = 0
    for index, suite in enumerate(compiled):
        print(f"suite {index} ({suite.suite.kind}): {len(suite.jobs)} job(s)")
        for job in suite.jobs:
            total += 1
            print(f"  {job.spec_hash()[:12]}  {job.to_json()}")
    print(f"\n{total} job(s) from {len(compiled)} suite(s)")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    names = list(args.names) or ["all"]
    if "all" in names:
        names = list(FIGURE_MAINS)
    unknown = sorted(set(names) - set(FIGURE_MAINS))
    if unknown:
        print(
            f"error: unknown figure(s) {unknown}; expected {', '.join(FIGURE_MAINS)} or 'all'",
            file=sys.stderr,
        )
        return 1
    from repro.experiments import (
        fig4_microbench,
        fig5_membw_sweep,
        fig6_sm_sweep,
        fig9_dse,
        fig10_overlap,
        fig11_scaling,
        fig12_dlrm_opt,
        table4_area,
    )

    mains = {
        "fig4": fig4_microbench.main,
        "fig5": fig5_membw_sweep.main,
        "fig6": fig6_sm_sweep.main,
        "fig9": fig9_dse.main,
        "fig10": fig10_overlap.main,
        "fig11": fig11_scaling.main,
        "fig12": fig12_dlrm_opt.main,
        "table4": table4_area.main,
    }
    runner = default_runner()
    fast = not args.paper_scale
    for name in names:
        if name != names[0]:
            print()
        if name == "table4":
            mains[name](runner=runner)
        else:
            mains[name](fast=fast, runner=runner)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.bench import format_bench, run_bench, write_bench

    cache = cache_from_env()
    pruned = cache.prune()
    if cache.directory is not None:
        print(f"result cache {cache.directory}: pruned {pruned} stale entries")
    rows = run_bench()
    path = write_bench(rows, args.out)
    print(format_bench(rows))
    print(f"wrote {path}")
    return 0


def _trace_list(args: argparse.Namespace) -> int:
    from repro.traces import cost_table_names, discover_traces, find_cost_table

    traces = discover_traces(args.directory)
    tables = [find_cost_table(name) for name in cost_table_names()]
    if args.json:
        payload = {
            "traces": [trace.summary() for trace in traces],
            "cost_tables": [
                {
                    "name": table.name,
                    "tflops": table.tflops,
                    "memory_bandwidth_gbps": table.memory_bandwidth_gbps,
                    "description": table.description,
                }
                for table in tables
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    name_width = max([len(t.name) for t in traces] + [5])
    print(f"{'trace':<{name_width}}  {'nodes':>5}  {'edges':>5}  description")
    for trace in traces:
        print(
            f"{trace.name:<{name_width}}  {len(trace.nodes):>5}  "
            f"{len(trace.edges):>5}  {trace.description}"
        )
    print(f"\n{len(traces)} trace(s); cost tables: {', '.join(t.name for t in tables)}")
    return 0


def _trace_validate(args: argparse.Namespace) -> int:
    from repro.traces import (
        cost_table_names,
        default_trace_dir,
        load_trace_file,
        lower_trace,
    )

    directory = Path(args.directory) if args.directory else default_trace_dir()
    if not directory.is_dir():
        print(f"error: trace directory {directory} does not exist", file=sys.stderr)
        return 1
    if args.names:
        paths = [directory / f"{name}.json" for name in args.names]
    else:
        paths = sorted(directory.glob("*.json"))
    if not paths:
        print("error: no trace files found", file=sys.stderr)
        return 1
    # Validation is load *and* lower: a trace that parses but cannot be
    # scheduled (partial embedding stage, unknown layer tag) must FAIL here,
    # and lowering through every registered cost table keeps the device
    # tables honest too.
    failures = 0
    for path in paths:
        try:
            trace = load_trace_file(path)
            for table in cost_table_names():
                lower_trace(trace, table)
        except ReproError as exc:
            failures += 1
            print(f"FAIL  {path.stem}: {exc}")
            continue
        print(
            f"ok    {trace.name}: {len(trace.nodes)} node(s), "
            f"{len(trace.edges)} edge(s), lowers on {len(cost_table_names())} cost table(s)"
        )
    if failures:
        print(f"\n{failures} of {len(paths)} trace(s) invalid", file=sys.stderr)
        return 1
    print(f"\nall {len(paths)} trace(s) valid")
    return 0


def _trace_convert(args: argparse.Namespace) -> int:
    from repro.traces import convert_workload
    from repro.workloads import available_workloads

    names = list(available_workloads()) if args.workload == "all" else [args.workload]
    if args.workload == "all" and args.name is not None:
        print("error: --name cannot be combined with 'all'", file=sys.stderr)
        return 1
    for name in names:
        trace = convert_workload(name, args.name)
        text = json.dumps(trace.to_dict(), indent=2) + "\n"
        if args.out is None:
            print(text, end="")
        else:
            out = Path(args.out)
            path = out / f"{trace.name}.json" if (out.is_dir() or len(names) > 1) else out
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path} ({len(trace.nodes)} node(s), {len(trace.edges)} edge(s))")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    handlers = {
        "list": _trace_list,
        "validate": _trace_validate,
        "convert": _trace_convert,
    }
    return handlers[args.trace_command](args)


_COMMANDS = {
    "list": _cmd_list,
    "validate": _cmd_validate,
    "run": _cmd_run,
    "expand": _cmd_expand,
    "figures": _cmd_figures,
    "bench": _cmd_bench,
    "trace": _cmd_trace,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
