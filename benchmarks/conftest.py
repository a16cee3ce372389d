"""pytest-benchmark configuration for the experiment harnesses.

Each benchmark regenerates one of the paper's tables or figures in the fast
experiment mode (reduced sweep breadth and larger collective chunks so the
whole suite finishes in minutes).  Passing ``--paper-scale`` switches every
benchmark to the full paper-scale sweep.

All benchmarks share one parallel :class:`~repro.runner.SweepRunner` so the
grid fans out over worker processes and cells that appear in several figures
are simulated once; ``--serial-runner`` forces single-process execution (e.g.
for profiling).  ``test_backend_wall_ratio.py`` is the one slow-marked test
here: a wall-time bound on the detailed backend, run with ``-m slow``.
"""

import os

import pytest

from repro.runner import ResultCache, SweepRunner


def pytest_addoption(parser):
    parser.addoption(
        "--paper-scale",
        action="store_true",
        default=False,
        help="run the experiments at full paper scale (slow)",
    )
    parser.addoption(
        "--serial-runner",
        action="store_true",
        default=False,
        help="run every sweep in-process instead of on the worker pool",
    )


@pytest.fixture(scope="session")
def fast_mode(request) -> bool:
    return not request.config.getoption("--paper-scale")


@pytest.fixture(scope="session")
def runner(request) -> SweepRunner:
    """Shared parallel runner with a session-wide result cache."""
    if request.config.getoption("--serial-runner"):
        workers = 1
    else:
        workers = min(4, os.cpu_count() or 1)
    return SweepRunner(workers=workers, cache=ResultCache())
