"""Scenario discovery, loading, and compilation into SimJob batches.

Manifests live as one ``<name>.json`` file per scenario (the file stem must
equal the manifest's ``name``), by default under ``scenarios/`` at the
repository root — override with the ``REPRO_SCENARIOS_DIR`` environment
variable or the CLI's ``--dir`` flag.

Compilation turns a validated :class:`~repro.scenarios.schema.Scenario` into
the exact :class:`~repro.runner.SimJob` batch the hand-written harnesses
build: a ``grid`` suite's workload cells compile through
:func:`repro.experiments.common.grid_jobs` and its drive cells through
:func:`repro.runner.network_drive_job`, so a manifest-driven run produces
byte-identical job specs (and therefore cache keys) to the corresponding
harness.  ``figure`` suites delegate to a harness run function (see
:func:`_figure_registry`) for the figures whose job parameters are computed
rather than declared (e.g. Fig. 4's contended resource estimates).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.errors import ReproError, ScenarioError
from repro.runner import SimJob, area_power_job, network_drive_job, trace_job
from repro.scenarios.schema import GRID_AXES, Scenario, Suite

#: Environment variable overriding the default scenario manifest directory.
SCENARIO_DIR_ENV = "REPRO_SCENARIOS_DIR"


def default_scenario_dir() -> Path:
    """The manifest directory: ``$REPRO_SCENARIOS_DIR``, ``./scenarios``, or
    the ``scenarios/`` directory next to this source checkout."""
    env = os.environ.get(SCENARIO_DIR_ENV)
    if env:
        return Path(env).expanduser()
    cwd = Path.cwd() / "scenarios"
    if cwd.is_dir():
        return cwd
    checkout = Path(__file__).resolve().parents[3] / "scenarios"
    return checkout if checkout.is_dir() else cwd


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def load_scenario_file(path: Union[str, Path]) -> Scenario:
    """Parse and validate one manifest file.

    The manifest's ``name`` must match the file stem, so that
    ``scenarios/<name>.json`` is always the scenario named ``<name>``.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario manifest {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from None
    scenario = Scenario.from_dict(data, source=str(path))
    if scenario.name != path.stem:
        raise ScenarioError(
            f"{path}: scenario name {scenario.name!r} must match the file "
            f"stem {path.stem!r} (rename the file or the scenario)"
        )
    return scenario


def discover_scenarios(directory: Union[str, Path, None] = None) -> List[Scenario]:
    """Load every ``*.json`` manifest in ``directory``, sorted by name."""
    directory = Path(directory) if directory is not None else default_scenario_dir()
    if not directory.is_dir():
        raise ScenarioError(
            f"scenario directory {directory} does not exist "
            f"(set {SCENARIO_DIR_ENV} or pass --dir)"
        )
    return [load_scenario_file(path) for path in sorted(directory.glob("*.json"))]


def find_scenario(name: str, directory: Union[str, Path, None] = None) -> Scenario:
    """Load the scenario called ``name``, with a helpful error if absent."""
    directory = Path(directory) if directory is not None else default_scenario_dir()
    path = directory / f"{name}.json"
    if not path.is_file():
        available = sorted(p.stem for p in directory.glob("*.json")) if directory.is_dir() else []
        raise ScenarioError(f"no scenario named {name!r} in {directory}; available: {available}")
    return load_scenario_file(path)


# ---------------------------------------------------------------------------
# Figure registry (harness-delegating suites)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FigureRunner:
    """A figure harness usable from a ``figure`` suite: returns result rows."""

    name: str
    rows: Callable[..., List[Dict[str, object]]]
    description: str


def _figure_registry() -> Dict[str, FigureRunner]:
    """Lazily built name -> harness map (import cost only when needed).

    The ``fig5`` and ``fig11`` wrappers keep their harness's signature
    (``functools.wraps``), so :func:`resolve_figure` validates their options.
    """
    from repro.experiments.fig4_microbench import run_fig4
    from repro.experiments.fig5_membw_sweep import run_fig5, run_section6a_analysis
    from repro.experiments.fig6_sm_sweep import run_fig6
    from repro.experiments.fig9_dse import run_fig9a, run_fig9b
    from repro.experiments.fig10_overlap import run_fig10
    from repro.experiments.fig11_scaling import run_fig11
    from repro.experiments.fig12_dlrm_opt import run_fig12

    @functools.wraps(run_fig5)
    def fig5_rows(**kwargs) -> List[Dict[str, object]]:
        call = inspect.signature(run_fig5).bind(**kwargs)
        call.apply_defaults()
        return run_fig5(**kwargs) + run_section6a_analysis(call.arguments["sizes"])

    @functools.wraps(run_fig11)
    def fig11_rows(**kwargs) -> List[Dict[str, object]]:
        data = run_fig11(**kwargs)
        return data["breakdown"] + data["speedups"]

    return {
        "fig4": FigureRunner("fig4", run_fig4, "all-reduce slowdown under compute contention"),
        "fig5": FigureRunner(
            "fig5", fig5_rows, "network BW vs memory BW, then Section VI-A memory reads"
        ),
        "fig6": FigureRunner("fig6", run_fig6, "network BW vs #SMs for communication"),
        "fig9a": FigureRunner("fig9a", run_fig9a, "ACE SRAM/FSM design-space sweep"),
        "fig9b": FigureRunner("fig9b", run_fig9b, "ACE utilization, forward vs backward"),
        "fig10": FigureRunner("fig10", run_fig10, "compute/communication overlap summary"),
        "fig11": FigureRunner("fig11", fig11_rows, "scaling breakdown and speedups"),
        "fig12": FigureRunner("fig12", run_fig12, "DLRM default vs optimised loop"),
    }


def resolve_figure(suite: Suite, context: str) -> "CompiledFigure":
    """Validate a ``figure`` suite against the registry and its signature."""
    registry = _figure_registry()
    name = str(suite.spec["figure"])
    if name not in registry:
        raise ScenarioError(
            f"{context}: unknown figure {name!r}; expected one of {sorted(registry)}"
        )
    runner = registry[name]
    parameters = inspect.signature(runner.rows).parameters
    options = dict(suite.spec.get("options", {}))
    unknown = sorted(set(options) - set(parameters))
    if unknown:
        raise ScenarioError(
            f"{context}: figure {name!r} does not accept option(s) {unknown}; "
            f"accepted: {sorted(set(parameters) - {'runner', 'fast'})}"
        )
    options.setdefault("fast", bool(suite.spec.get("fast", True)))
    return CompiledFigure(figure=runner, options=options)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledFigure:
    """A resolved figure harness plus the keyword options to call it with."""

    figure: FigureRunner
    options: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class CompiledSuite:
    """One suite compiled to executable form: a job batch or a figure call."""

    suite: Suite
    jobs: Sequence[SimJob] = ()
    figure: Optional[CompiledFigure] = None

    @property
    def is_figure(self) -> bool:
        """True when this suite delegates to a harness instead of jobs."""
        return self.figure is not None


def _check_names(values: Sequence[str], allowed: Sequence[str], what: str, field: str) -> None:
    """Reject unknown preset/workload names at compile time, not in a worker.

    ``field`` is the suite key that listed them.
    """
    from repro.errors import ConfigurationError

    unknown = sorted(set(values) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"unknown {what} name(s) {unknown}; expected one of {sorted(allowed)}",
            field=field,
        )


def _check_systems(values: Sequence[str], field: str = "systems") -> None:
    from repro.config.presets import SYSTEM_CONFIG_NAMES

    _check_names(values, SYSTEM_CONFIG_NAMES, "system", field)


def _check_workloads(values: Sequence[str]) -> None:
    from repro.workloads.registry import available_workloads

    _check_names(values, available_workloads(), "workload", "workloads")


def _check_pipeline_compat(workloads: Sequence[str], parallelism: Optional[str]) -> None:
    """Reject pipeline parallelism over embedding workloads at compile time.

    The training loop raises the same complaint, but from a worker process;
    manifests should fail at validation with the offending cell named.
    """
    if parallelism is None or not str(parallelism).startswith("pipeline"):
        return
    from repro.errors import ConfigurationError
    from repro.workloads.registry import build_workload

    for name in workloads:
        if build_workload(name).embedding is not None:
            raise ConfigurationError(
                f"pipeline parallelism ({parallelism!r}) cannot be applied to "
                f"workload {name!r}: its model-parallel embedding stage has "
                f"no pipeline-stage placement"
            )


def _compile_grid(spec: Mapping[str, object]) -> List[SimJob]:
    """The inner grid once per outer-axis cell.

    The outer axes (:data:`~repro.scenarios.schema.GRID_AXES`) wrap the
    inner grid; an absent or empty axis list, or a ``null`` entry, means the
    job field's default.  The inner grid is (workload x size x system),
    routed through :func:`repro.experiments.common.grid_jobs`, so the
    expansion is byte-identical to hand-enumerating one harness batch per
    combination and identical specs hit identical cache keys; with
    ``traces`` it is (trace x size x system), and with ``payload_bytes``
    (op x size x system) single-collective drives.  Every trace file is
    loaded -- and therefore fully validated -- before any job is built, so a
    broken ``traces/<name>.json`` fails ``repro validate`` with the
    offending node named instead of dying in a worker process.
    """
    from repro.config.presets import SYSTEM_CONFIG_NAMES
    from repro.experiments.common import grid_jobs

    systems = tuple(spec.get("systems", SYSTEM_CONFIG_NAMES))
    _check_systems(systems)
    sizes = tuple(spec.get("sizes", (16,)))
    axes = {field: tuple(spec.get(name, ())) or (None,) for name, field in GRID_AXES}
    if any(fabric is not None for fabric in axes["fabric"]) and len(set(sizes)) > 1:
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            f"a fabric spec fixes the platform size; pass a single-entry "
            f"sizes instead of {sizes} (one fabric spec per size)"
        )
    cells = [
        {field: value for field, value in zip(axes, cell) if value is not None}
        for cell in itertools.product(*axes.values())
    ]
    chunk_bytes = spec.get("chunk_bytes")
    if "payload_bytes" in spec:
        ops = tuple(spec.get("ops", ("all_reduce",)))
        return [
            network_drive_job(
                system,
                int(spec["payload_bytes"]),
                op=op,
                num_npus=None if "fabric" in knobs else num_npus,
                chunk_bytes=chunk_bytes,
                **knobs,
            )
            for knobs in cells
            for op, num_npus, system in itertools.product(ops, sizes, systems)
        ]
    iterations = int(spec.get("iterations", 2))
    if "traces" in spec:
        from repro.traces import find_trace
        from repro.traces.cost import find_cost_table

        traces = tuple(spec["traces"])
        cost_table = spec.get("cost_table")
        for name in traces:
            find_trace(name)
        if cost_table is not None:
            find_cost_table(str(cost_table))
        return [
            trace_job(
                system,
                trace,
                num_npus=None if "fabric" in knobs else num_npus,
                iterations=iterations,
                chunk_bytes=chunk_bytes,
                cost_table=cost_table,
                **knobs,
            )
            for knobs in cells
            for trace, num_npus, system in itertools.product(traces, sizes, systems)
        ]
    workloads = tuple(spec.get("workloads", ("resnet50", "gnmt", "dlrm")))
    _check_workloads(workloads)
    for parallelism in axes["parallelism"]:
        _check_pipeline_compat(workloads, parallelism)
    return [
        job
        for knobs in cells
        for job in grid_jobs(
            systems=systems,
            workloads=workloads,
            sizes=sizes,
            fast=bool(spec.get("fast", True)),
            chunk_bytes=chunk_bytes,
            iterations=iterations,
            overlap_embedding=bool(spec.get("overlap_embedding", False)),
            **knobs,
        )
    ]


def _resolve_model_agreement(suite: Suite) -> "CompiledFigure":
    """A delegating suite over the paired-model agreement harness.

    The harness runs every cell once per model of the pair and reports one
    *comparison* row per cell (``time_rel_err``, ``exposed_delta_frac``,
    ``slowdown_frac``), so a manifest asserts the model-validation bound
    with plain ``bound`` invariants.  The paired jobs are built here once so
    that a bad pair, cell or size fails at compile time.
    """
    from repro.experiments.model_agreement import agreement_jobs, run_model_agreement

    options: Dict[str, object] = {"system": "ace", **suite.spec}
    _check_systems((options["system"],), field="system")
    for name in ("training_cells", "drive_cells"):
        if name in options:
            options[name] = [tuple(cell) for cell in options[name]]
    agreement_jobs(**options)
    runner = FigureRunner(
        "model_agreement", run_model_agreement, f"{options['knob']} model agreement"
    )
    return CompiledFigure(figure=runner, options=options)


def _compile_area_power(spec: Mapping[str, object]) -> List[SimJob]:
    ace = spec.get("ace") or {}
    if not ace:
        return [area_power_job()]
    return [SimJob(kind="area_power", overrides={"ace": dict(ace)})]


_COMPILERS: Dict[str, Callable[[Mapping[str, object]], List[SimJob]]] = {
    "grid": _compile_grid,
    "area_power": _compile_area_power,
}


def compile_suite(scenario: Scenario, index: int) -> CompiledSuite:
    """Compile one suite of ``scenario`` into jobs (or a delegated harness)."""
    suite = scenario.suites[index]
    context = f"scenario {scenario.name!r} suite #{index}"
    try:
        if suite.kind == "figure":
            return CompiledSuite(suite=suite, figure=resolve_figure(suite, context))
        if suite.kind == "model_agreement":
            return CompiledSuite(suite=suite, figure=_resolve_model_agreement(suite))
        jobs = _COMPILERS[suite.kind](suite.spec)
    except ScenarioError:
        raise
    except ReproError as exc:
        raise ScenarioError(
            f"{context} ({suite.kind}): {exc}", field=getattr(exc, "field", None)
        ) from exc
    if not jobs:
        raise ScenarioError(f"{context} ({suite.kind}): compiled to an empty job batch")
    return CompiledSuite(suite=suite, jobs=tuple(jobs))


def compile_scenario(scenario: Scenario) -> List[CompiledSuite]:
    """Compile every suite of ``scenario``; raises ScenarioError on any flaw."""
    return [compile_suite(scenario, index) for index in range(len(scenario.suites))]


def scenario_jobs(scenario: Scenario) -> List[SimJob]:
    """All SimJobs a scenario compiles to (figure suites contribute none)."""
    jobs: List[SimJob] = []
    for compiled in compile_scenario(scenario):
        jobs.extend(compiled.jobs)
    return jobs
