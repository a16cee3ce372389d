"""Trace/DAG-driven workloads: the simulator's data-driven front end.

Arbitrary training scenarios — transformers with MoE all-to-all blocks,
DLRM variants, pipeline-staged models — become JSON files instead of Python:

* :mod:`repro.traces.format` — the versioned operator-graph trace format
  (compute nodes with architectural or measured op descriptors, comm nodes
  with collective type + payload + role, dependency edges) with strict
  validation and ``traces/`` directory discovery.
* :mod:`repro.traces.cost` — per-device cost tables mapping op descriptors
  to :class:`~repro.compute.kernels.KernelCost` via the existing roofline,
  with a measured-duration passthrough mode.
* :mod:`repro.traces.schedule` — the DAG scheduler lowering a trace into
  the training loop's layer/collective stream
  (:class:`~repro.workloads.base.Workload`), so traces ride the planner,
  network backends, parallelism strategies, runner and cache paths
  unchanged.
* :mod:`repro.traces.convert` — trace capture: export any built-in workload
  to the trace format; the round-trip reproduces golden iteration times.

>>> from repro import make_system, simulate_training
>>> from repro.traces import find_trace, lower_trace
>>> workload = lower_trace(find_trace("moe-transformer"))
>>> result = simulate_training(make_system("ace"), workload, num_npus=16)
"""

from repro.traces.convert import convert_workload, workload_to_trace
from repro.traces.cost import (
    DEFAULT_COST_TABLE,
    DeviceCostTable,
    cost_table_names,
    find_cost_table,
)
from repro.traces.format import (
    TRACE_DIR_ENV,
    TRACE_SCHEMA_VERSION,
    Trace,
    TraceNode,
    default_trace_dir,
    discover_traces,
    find_trace,
    load_trace_file,
    topological_order,
)
from repro.traces.schedule import lower_trace

__all__ = [
    "DEFAULT_COST_TABLE",
    "DeviceCostTable",
    "TRACE_DIR_ENV",
    "TRACE_SCHEMA_VERSION",
    "Trace",
    "TraceNode",
    "convert_workload",
    "cost_table_names",
    "default_trace_dir",
    "discover_traces",
    "find_cost_table",
    "find_trace",
    "load_trace_file",
    "lower_trace",
    "topological_order",
    "workload_to_trace",
]
