"""Outside-in layer trace: timing spans around the simulator's entry points.

:func:`install` wraps the public entry points listed in :data:`LAYERS` --
from the benchmark's side, leaving ``src/`` unchanged -- in spans kept on
one stack, so a layer's *self time* is its spans' durations minus the time
spent in spans opened inside them.  Time in no wrapped entry point (the
runner's own bookkeeping, spec canonicalisation, and the executor's private
chunk callbacks, which run straight from ``Simulator.run``) stays with the
innermost enclosing span or, outside every span, unattributed.

A few more entry points are only counted (:attr:`LayerTrace.counts`); those
counts, like the per-layer call counts, repeat exactly from run to run.
"""

from __future__ import annotations

import time
from collections import Counter
from importlib import import_module
from typing import Callable, Dict, List, Optional, Tuple

#: Layer name -> ``(module, attribute path)`` of each entry point it times.
#: A module-level function is listed under every module its callers look
#: it up in, since ``from x import f`` copies the reference.
LAYERS: Dict[str, List[Tuple[str, str]]] = {
    "scenarios": [("repro.scenarios.loader", "scenario_jobs")],
    "runner.job": [
        ("repro.runner.job", "SimJob.build_system"),
        ("repro.runner.job", "SimJob.build_topology"),
        ("repro.runner.job", "SimJob.spec_hash"),
    ],
    "runner.cache": [
        ("repro.runner.cache", "ResultCache.lookup"),
        ("repro.runner.cache", "ResultCache.store"),
    ],
    "runner.serialization": [
        ("repro.runner.pool", "encode_result"),
        ("repro.runner.pool", "decode_result"),
    ],
    "workloads": [
        ("repro.runner.job", "build_workload"),
        ("repro.workloads.registry", "build_workload"),
        ("repro.traces", "find_trace"),
        ("repro.traces", "lower_trace"),
    ],
    "training.loop": [
        ("repro.training.loop", "TrainingLoop.__init__"),
        ("repro.training.loop", "TrainingLoop.run"),
    ],
    "training.comm": [("repro.training.comm", "CollectiveExecutor.issue")],
    "collectives.planner": [
        ("repro.training.comm", "plan_collective"),
        ("repro.collectives.planner", "plan_collective"),
    ],
    "compute": [
        ("repro.compute.npu", "NpuComputeEngine.execute"),
        ("repro.compute.npu", "NpuComputeEngine.task_time_ns"),
    ],
    "sim.engine": [("repro.sim.engine", "Simulator.run")],
    "endpoint": [
        (f"repro.endpoint.{module}", f"{cls}.{method}")
        for module, cls in (
            ("ace", "AceEndpoint"),
            ("baseline", "BaselineEndpoint"),
            ("ideal", "IdealEndpoint"),
        )
        for method in ("ingress", "process_phase", "egress")
    ],
    "network": [
        ("repro.network.symmetric", "SymmetricFabric.reserve"),
        ("repro.network.detailed", "DetailedBackend.reserve"),
        ("repro.network.detailed", "DetailedBackend.transfer"),
        ("repro.network.hybrid", "HybridBackend.reserve"),
        ("repro.network.hybrid", "HybridBackend.transfer"),
    ],
    "sim.resources": [
        ("repro.sim.resources", "BandwidthResource.reserve"),
        ("repro.sim.resources", "BandwidthResource.reserve_batch"),
        ("repro.sim.resources", "BandwidthResource.reserve_times"),
        ("repro.sim.resources", "SlotResource.acquire"),
    ],
    "sim.trace": [
        ("repro.sim.trace", "IntervalTracer.record"),
        ("repro.sim.trace", "IntervalTracer.busy_time"),
        ("repro.sim.trace", "UtilizationTrace.utilization_series"),
    ],
}


class LayerTrace:
    """Per-layer self time and calls, plus the simulated-event probe.

    ``events`` and ``engine_s`` (host seconds inside ``Simulator.run``) are
    kept even when spans are off: they cost one wrapper call per simulation.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.counts: Counter = Counter()
        self.events = 0
        self.engine_s = 0.0
        self._stack: List[float] = []

    def span(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span that charges its self time to ``layer``."""
        stack, self_s, calls, clock = self._stack, self.self_s, self.calls, time.perf_counter

        def spanned(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed

        return spanned

    def counted(
        self, name: str, fn: Callable, amount: Optional[Callable[[object], int]] = None
    ) -> Callable:
        """``fn`` wrapped to add one (or ``amount(result)``) to ``counts[name]``."""
        counts = self.counts

        def count(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1 if amount is None else amount(result)
            return result

        return count

    def probed_run(self, run: Callable) -> Callable:
        """``Simulator.run`` wrapped to accumulate events and host seconds."""

        def probed(sim, *args, **kwargs):
            before = sim.events_processed
            start = time.perf_counter()
            try:
                return run(sim, *args, **kwargs)
            finally:
                self.engine_s += time.perf_counter() - start
                self.events += sim.events_processed - before

        return probed


def install(trace: LayerTrace, spans: bool) -> None:
    """Wrap the entry points for the rest of this process.

    With ``spans=False`` only the ``Simulator.run`` event probe goes in.
    Call it before any simulator object is built: some objects keep bound
    methods of the wrapped classes from construction on.
    """
    from repro.sim.engine import Simulator

    Simulator.run = trace.probed_run(Simulator.run)
    if not spans:
        return
    from repro.collectives.base import CollectivePlan
    from repro.endpoint.base import PhaseWork
    from repro.training.comm import CollectiveExecutor

    CollectivePlan.stages = trace.counted("collectives.stages.calls", CollectivePlan.stages)
    PhaseWork.from_phase = classmethod(
        trace.counted("endpoint.phase_work.calls", vars(PhaseWork)["from_phase"].__func__)
    )
    CollectiveExecutor.issue = trace.counted(
        "training.comm.chunks", CollectiveExecutor.issue, amount=lambda handle: handle.num_chunks
    )
    for layer, entries in LAYERS.items():
        for module, path in entries:
            owner: object = import_module(module)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            setattr(owner, attr, trace.span(layer, vars(owner)[attr]))
