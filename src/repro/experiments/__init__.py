"""Experiment harnesses — one module per paper figure / table.

Every module exposes a ``run_*`` function returning plain dict rows, so tests,
benchmarks and scenario manifests can assert on them.  To regenerate and
print a figure, run its manifest: ``python -m repro run fig11-scaling``.
The ``fast`` flag trades sweep breadth for runtime; ``"fast": false`` in a
manifest (or ``pytest benchmarks --paper-scale``) reproduces the full
paper-scale sweep.

Every harness expresses its sweep as :class:`repro.runner.SimJob` batches and
accepts an optional ``runner=`` (a :class:`repro.runner.SweepRunner`) to
parallelise the grid over worker processes and reuse cached cells; when
omitted, the shared default runner (``REPRO_WORKERS`` / ``REPRO_CACHE_DIR``)
is used.

========  ===============  ==================================================
Module    Manifest         Paper artifact
========  ===============  ==================================================
fig4      fig4-microbench  Fig. 4 — all-reduce slowdown under contention
fig5      fig5-membw       Fig. 5 — network BW vs memory BW; Section VI-A
fig6      fig6-sm-sweep    Fig. 6 — network BW vs #SMs for communication
fig9      fig9-dse         Fig. 9a/9b — ACE design space and utilization
fig10     fig10-overlap    Fig. 10 — compute/communication overlap
fig11     fig11-scaling    Fig. 11a/11b — scaling breakdown and speedups
fig12     fig12-dlrm-opt   Fig. 12 — DLRM embedding-overlap optimisation
table4    table4-area      Table IV — ACE area and power
========  ===============  ==================================================

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
