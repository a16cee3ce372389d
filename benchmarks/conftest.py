"""pytest-benchmark configuration for the experiment harnesses.

Each benchmark regenerates one of the paper's tables or figures with the
options its shipped manifest (``scenarios/fig*.json``) gives the harness:
the sweep breadth and collective chunks that keep the whole suite to
minutes.  Paper scale is each harness's defaults (see the README).

All benchmarks share one parallel :class:`~repro.runner.SweepRunner` so the
grid fans out over worker processes and cells that appear in several figures
are simulated once; ``--serial-runner`` forces single-process execution (e.g.
for profiling).  ``test_backend_wall_ratio.py`` is the one slow-marked test
here: a wall-time bound on the detailed backend, run with ``-m slow``.
"""

import os
from pathlib import Path

import pytest

from repro.runner import ResultCache, SweepRunner
from repro.scenarios import discover_scenarios

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def pytest_addoption(parser):
    parser.addoption(
        "--serial-runner",
        action="store_true",
        default=False,
        help="run every sweep in-process instead of on the worker pool",
    )


@pytest.fixture(scope="session")
def runner(request) -> SweepRunner:
    """Shared parallel runner with a session-wide result cache."""
    if request.config.getoption("--serial-runner"):
        workers = 1
    else:
        workers = min(4, os.cpu_count() or 1)
    return SweepRunner(workers=workers, cache=ResultCache())


@pytest.fixture(scope="session")
def figure_kwargs(runner):
    """``figure -> keyword arguments``: the options of the shipped manifest
    suite that runs the figure, plus the shared runner."""
    options = {
        suite.spec["figure"]: dict(suite.spec.get("options", {}))
        for scenario in discover_scenarios(SCENARIO_DIR)
        for suite in scenario.suites
        if suite.kind == "figure"
    }
    return lambda figure: {**options[figure], "runner": runner}
