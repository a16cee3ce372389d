"""Experiment harnesses — one module per paper figure / table.

Every module exposes a ``run_*`` function returning plain dict rows (so tests
and benchmarks can assert on them) and a ``main()`` that prints the rows as an
aligned table.  The ``fast`` flag trades sweep breadth for runtime and is what
the pytest-benchmark harness uses; passing ``fast=False`` reproduces the full
paper-scale sweep.

Every harness expresses its sweep as :class:`repro.runner.SimJob` batches and
accepts an optional ``runner=`` (a :class:`repro.runner.SweepRunner`) to
parallelise the grid over worker processes and reuse cached cells; when
omitted, the shared default runner (``REPRO_WORKERS`` / ``REPRO_CACHE_DIR``)
is used.

========  ==============================================================
Module    Paper artifact
========  ==============================================================
fig4      Fig. 4 — all-reduce slowdown under compute/memory contention
fig5      Fig. 5 — network BW vs memory BW available for communication
fig6      Fig. 6 — network BW vs #SMs available for communication
fig9      Fig. 9a/9b — ACE design-space exploration and utilization
fig10     Fig. 10 — compute/communication overlap timelines
fig11     Fig. 11a/11b — scaling of compute, exposed comm and speedups
fig12     Fig. 12 — DLRM embedding-overlap optimisation
table4    Table IV — ACE area and power
========  ==============================================================

:mod:`repro.experiments.cross_topology` extends past the paper: it sweeps
(topology x collective algorithm x platform size) through the planner
registry and the sweep runner; see ``run_cross_topology``.
:mod:`repro.experiments.model_agreement` reproduces the paper's
model-validation methodology: every cell runs on both models of a pair
(network backends or compute models) and the fast model must track the
reference within a per-knob bound; see ``run_model_agreement``.
"""

from repro.experiments import common
from repro.experiments.cross_topology import run_cross_topology
from repro.experiments.fig4_microbench import run_fig4
from repro.experiments.fig5_membw_sweep import run_fig5
from repro.experiments.fig6_sm_sweep import run_fig6
from repro.experiments.fig9_dse import run_fig9a, run_fig9b
from repro.experiments.fig10_overlap import run_fig10
from repro.experiments.fig11_scaling import run_fig11
from repro.experiments.fig12_dlrm_opt import run_fig12
from repro.experiments.model_agreement import run_model_agreement
from repro.experiments.table4_area import run_table4

__all__ = [
    "common",
    "run_cross_topology",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig9a",
    "run_fig9b",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_model_agreement",
    "run_table4",
]
