"""Declarative scenario manifests: schema, loader, invariants, execution.

The scenario subsystem is the data-driven front door to the simulator: a
``scenarios/*.json`` manifest declares *what* to simulate (suites of
(system x workload x size x fabric x algorithm x backend) cells) and *what
must hold* of the results (invariants like the paper's ``ideal <= ace <=
baseline`` ordering); this package validates the manifest, compiles it into
the same :class:`~repro.runner.SimJob` specs the hand-written harnesses
build, runs it through the parallel sweep runner, and emits a uniform
machine-readable report.  ``python -m repro`` (see :mod:`repro.cli`) is the
command-line surface over it.
"""

from repro.scenarios.execute import run_scenario
from repro.scenarios.invariants import (
    build_violation,
    check_invariant,
    check_invariants,
)
from repro.scenarios.loader import (
    SCENARIO_DIR_ENV,
    CompiledSuite,
    compile_scenario,
    compile_suite,
    default_scenario_dir,
    discover_scenarios,
    find_scenario,
    load_scenario_file,
    scenario_jobs,
)
from repro.scenarios.report import build_report
from repro.scenarios.schema import (
    INVARIANT_KINDS,
    SCHEMA_VERSION,
    SUITE_KINDS,
    Invariant,
    Scenario,
    Suite,
)

__all__ = [
    "SCENARIO_DIR_ENV",
    "SCHEMA_VERSION",
    "SUITE_KINDS",
    "INVARIANT_KINDS",
    "Scenario",
    "Suite",
    "Invariant",
    "CompiledSuite",
    "build_report",
    "build_violation",
    "check_invariant",
    "check_invariants",
    "compile_scenario",
    "compile_suite",
    "default_scenario_dir",
    "discover_scenarios",
    "find_scenario",
    "load_scenario_file",
    "run_scenario",
    "scenario_jobs",
]
