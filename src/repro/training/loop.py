"""The training-loop simulator.

Recreates the paper's training loop (Section V):

* forward pass, layer by layer; before computing layer ``i`` the loop must
  wait for layer ``i``'s weight-gradient all-reduce from the previous
  iteration (data parallelism), and — for DLRM — for the embedding all-to-all
  before the first top-MLP layer,
* backward pass in reverse layer order; when a layer's weight-gradient kernel
  finishes its all-reduce is issued (non-blocking) to the collective executor,
* the BaselineNoOverlap configuration instead batches every weight-gradient
  payload into one blocking all-reduce at the end of back-propagation,
* collectives are scheduled LIFO so the collectives of the first layers —
  issued last — are served first (Section V),
* exposed communication is the time the compute engine sits idle waiting for
  a collective; total compute plus exposed communication is the iteration
  time (Section V, "Metric of Evaluation").

The DLRM-specific optimisation of Fig. 12 (overlapping the embedding
lookup/update of the next/previous iteration with the current iteration's
compute, and pre-issuing the forward all-to-all) is enabled with
``overlap_embedding=True``.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Union

from repro.collectives.base import CollectiveOp
from repro.compute.npu import NpuComputeEngine
from repro.config.presets import torus_shape_for_npus
from repro.config.system import EndpointKind, SystemConfig
from repro.errors import ConfigurationError, SimulationError
from repro.network.topology import Topology, torus_from_shape
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.training.comm import CollectiveExecutor, CollectiveHandle
from repro.training.parallelism import (
    ParallelismSpec,
    parse_parallelism,
    pipeline_bubble_fraction,
    pipeline_stages,
)
from repro.training.results import IterationBreakdown, TrainingResult
from repro.workloads.base import Workload


class TrainingLoop:
    """Event-driven co-simulation of compute and communication for one platform."""

    #: Window of the compute and network utilisation timelines (Fig. 10), in ns.
    UTILIZATION_WINDOW_NS = 50_000.0

    def __init__(
        self,
        system: SystemConfig,
        topology: Union[Topology, int, tuple],
        workload: Workload,
        iterations: int = 2,
        chunk_bytes: Optional[int] = None,
        overlap_embedding: bool = False,
    ) -> None:
        if iterations <= 0:
            raise SimulationError("iterations must be positive")
        self.system = system
        self.topology = _resolve_topology(topology)
        self.workload = workload
        self.iterations = iterations
        self.overlap_embedding = overlap_embedding
        # ``system.parallelism`` overrides the workload's native strategy.
        requested = system.parallelism or workload.parallelism
        self.parallelism: ParallelismSpec = parse_parallelism(requested)
        if self.parallelism.strategy == "pipeline" and workload.embedding is not None:
            raise ConfigurationError(
                f"pipeline parallelism cannot be applied to workload "
                f"{workload.name!r}: its model-parallel embedding stage "
                f"(all-to-all exchange) has no pipeline-stage placement; use "
                f"'data', 'zero' or 'hybrid' instead"
            )

        self.sim = Simulator()
        self.compute = NpuComputeEngine(system, time_scale=workload.compute_time_scale)
        self.executor = CollectiveExecutor(self.sim, system, self.topology, chunk_bytes=chunk_bytes)

        self._exposed_comm_ns = 0.0
        self._breakdowns: List[IterationBreakdown] = []
        self._pending_fwd_alltoall: Optional[CollectiveHandle] = None
        self._finished_at: Optional[float] = None
        #: Strategy-specific metrics merged into ``TrainingResult.extra``.
        #: Stays empty for the paper's original strategies so their encoded
        #: results (and golden values) are byte-identical.
        self._extra_metrics: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> TrainingResult:
        """Simulate the configured number of iterations and return the result."""
        if self.parallelism.strategy == "pipeline":
            program = self._pipeline_program()
        else:
            program = self._program()
        process = Process(self.sim, program, name="training-loop")
        process.done.on_fire(self.sim, self._on_finished)
        self.sim.run()
        if self._finished_at is None:
            raise SimulationError(
                "training loop deadlocked: the program did not finish "
                f"(pending events: {self.sim.pending_events})"
            )
        return self._build_result()

    # ------------------------------------------------------------------
    # Program
    # ------------------------------------------------------------------
    def _program(self) -> Generator:
        workload = self.workload
        no_overlap = self.system.endpoint is EndpointKind.BASELINE_NO_OVERLAP
        strategy = self.parallelism.strategy
        # ZeRO swaps the weight-gradient all-reduce for a reduce-scatter plus
        # a parameter all-gather gating each layer's forward pass; pure
        # tensor ("model") parallelism has no weight-gradient collectives.
        zero = strategy == "zero"
        shard_weights = strategy == "model"
        total_params = sum(l.params_bytes for l in workload.layers)
        weight_handles: Dict[int, CollectiveHandle] = {}

        for iteration in range(self.iterations):
            breakdown = IterationBreakdown(index=iteration, forward_start_ns=self.sim.now)
            compute_at_start = self.compute.total_compute_ns
            exposed_at_start = self._exposed_comm_ns
            self._breakdowns.append(breakdown)

            if zero and no_overlap and total_params > 0:
                # BaselineNoOverlap gathers every sharded parameter in one
                # blocking all-gather before the forward pass starts (the
                # analogue of its batched end-of-backward all-reduce).
                gather = self.executor.issue(
                    CollectiveOp.ALL_GATHER,
                    total_params,
                    name=f"iter{iteration}.batched-param-ag",
                )
                yield from self._wait_comm(gather)

            # ---------------- forward pass ----------------
            fwd_alltoall = None
            embedding = workload.embedding
            if embedding is not None:
                if self._pending_fwd_alltoall is not None:
                    # Issued early by the optimised loop during the previous
                    # backward pass (Fig. 12).
                    fwd_alltoall = self._pending_fwd_alltoall
                    self._pending_fwd_alltoall = None
                else:
                    if not self.overlap_embedding:
                        yield from self._run_compute(embedding.lookup)
                    fwd_alltoall = self.executor.issue(
                        CollectiveOp.ALL_TO_ALL,
                        embedding.alltoall_forward_bytes,
                        name=f"iter{iteration}.emb-fwd-a2a",
                    )

            for index, layer in enumerate(workload.layers):
                handle = weight_handles.get(index)
                if handle is not None:
                    yield from self._wait_comm(handle)
                if zero and not no_overlap and layer.params_bytes > 0:
                    # The layer's parameters are sharded; gather them before
                    # its forward compute (after the previous iteration's
                    # reduce-scatter of the same shard has completed).
                    gather = self.executor.issue(
                        CollectiveOp.ALL_GATHER,
                        layer.params_bytes,
                        name=f"iter{iteration}.{layer.name}.param-ag",
                    )
                    yield from self._wait_comm(gather)
                if (
                    embedding is not None
                    and fwd_alltoall is not None
                    and index == embedding.alltoall_before_layer
                ):
                    yield from self._wait_comm(fwd_alltoall)
                yield from self._run_compute(layer.forward)
                if layer.forward_allreduce_bytes > 0:
                    blocking = self.executor.issue(
                        layer.forward_comm_op,
                        layer.forward_allreduce_bytes,
                        name=f"iter{iteration}.{layer.name}.fwd-ar",
                    )
                    yield from self._wait_comm(blocking)

            # ---------------- backward pass ----------------
            breakdown.backward_start_ns = self.sim.now
            weight_handles = {}
            batched_payload = 0
            for index in reversed(range(len(workload.layers))):
                layer = workload.layers[index]
                yield from self._run_compute(layer.input_grad)
                yield from self._run_compute(layer.weight_grad)
                if layer.backward_allreduce_bytes > 0:
                    blocking = self.executor.issue(
                        layer.backward_comm_op,
                        layer.backward_allreduce_bytes,
                        name=f"iter{iteration}.{layer.name}.bwd-ar",
                    )
                    yield from self._wait_comm(blocking)
                if layer.params_bytes > 0 and not shard_weights:
                    if no_overlap:
                        batched_payload += layer.params_bytes
                    else:
                        op = CollectiveOp.REDUCE_SCATTER if zero else layer.comm_op
                        suffix = "wgrad-rs" if zero else "wgrad-ar"
                        weight_handles[index] = self.executor.issue(
                            op,
                            layer.params_bytes,
                            name=f"iter{iteration}.{layer.name}.{suffix}",
                        )

            if embedding is not None:
                bwd_alltoall = self.executor.issue(
                    CollectiveOp.ALL_TO_ALL,
                    embedding.alltoall_backward_bytes,
                    name=f"iter{iteration}.emb-bwd-a2a",
                )
                yield from self._wait_comm(bwd_alltoall)
                if not self.overlap_embedding:
                    yield from self._run_compute(embedding.update)
                elif iteration + 1 < self.iterations:
                    # The next iteration's lookup runs off the critical path
                    # on its dedicated SM / memory slice, so its all-to-all
                    # can be issued immediately (Fig. 12 optimised loop).
                    self._pending_fwd_alltoall = self.executor.issue(
                        CollectiveOp.ALL_TO_ALL,
                        embedding.alltoall_forward_bytes,
                        name=f"iter{iteration + 1}.emb-fwd-a2a(pre)",
                    )

            if no_overlap and batched_payload > 0:
                op = CollectiveOp.REDUCE_SCATTER if zero else CollectiveOp.ALL_REDUCE
                suffix = "batched-wgrad-rs" if zero else "batched-wgrad-ar"
                batched = self.executor.issue(
                    op,
                    batched_payload,
                    name=f"iter{iteration}.{suffix}",
                )
                yield from self._wait_comm(batched)

            breakdown.end_ns = self.sim.now
            breakdown.compute_ns = self.compute.total_compute_ns - compute_at_start
            breakdown.exposed_comm_ns = self._exposed_comm_ns - exposed_at_start

    def _pipeline_program(self) -> Generator:
        """1F1B pipeline schedule, simulated from the bottleneck stage.

        The layer list is split into contiguous flops-balanced stages and the
        slowest stage is simulated in full: its ``M`` microbatch slots each
        run the stage's scaled forward (or backward) kernels plus the
        point-to-point activation transfer to the neighbouring stage.  The
        1F1B fill/drain bubble is then charged explicitly as
        ``(stages - 1) x slot_time`` of idle per iteration, so the iteration
        decomposes as ``(M + S - 1)`` slots and the bubble fraction equals
        the closed form ``(S - 1) / (M + S - 1)`` by construction.
        """
        workload = self.workload
        spec = self.parallelism
        stages = pipeline_stages(workload.layers, spec.stages)
        micro = spec.microbatches
        bottleneck = max(range(len(stages)), key=lambda i: self._stage_time(stages[i]))
        stage_layers = stages[bottleneck]
        has_upstream = bottleneck > 0
        has_downstream = bottleneck < len(stages) - 1
        send_bytes = self._activation_send_bytes(micro)
        scale = 1.0 / micro
        total_bubble = 0.0

        for iteration in range(self.iterations):
            breakdown = IterationBreakdown(index=iteration, forward_start_ns=self.sim.now)
            compute_at_start = self.compute.total_compute_ns
            exposed_at_start = self._exposed_comm_ns
            self._breakdowns.append(breakdown)
            iter_start = self.sim.now

            for m in range(micro):
                for layer in stage_layers:
                    yield from self._run_compute(layer.forward.scaled(scale))
                if has_downstream:
                    send = self.executor.issue(
                        CollectiveOp.SEND,
                        send_bytes,
                        name=f"iter{iteration}.mb{m}.act-send",
                    )
                    yield from self._wait_comm(send)

            breakdown.backward_start_ns = self.sim.now
            for m in range(micro):
                for layer in reversed(stage_layers):
                    yield from self._run_compute(layer.input_grad.scaled(scale))
                    yield from self._run_compute(layer.weight_grad.scaled(scale))
                if has_upstream:
                    send = self.executor.issue(
                        CollectiveOp.SEND,
                        send_bytes,
                        name=f"iter{iteration}.mb{m}.grad-send",
                    )
                    yield from self._wait_comm(send)

            # Explicit 1F1B fill/drain: the bottleneck stage sits idle for
            # (S - 1) slot times per iteration while the pipeline ramps.
            slot = (self.sim.now - iter_start) / micro
            bubble = (spec.stages - 1) * slot
            if bubble > 0:
                total_bubble += bubble
                yield bubble

            breakdown.end_ns = self.sim.now
            breakdown.compute_ns = self.compute.total_compute_ns - compute_at_start
            breakdown.exposed_comm_ns = self._exposed_comm_ns - exposed_at_start

        self._extra_metrics = {
            "bubble_fraction": pipeline_bubble_fraction(spec.stages, micro),
            "pipeline_bubble_ns": total_bubble,
            "pipeline_stages": float(spec.stages),
            "pipeline_microbatches": float(micro),
        }

    def _stage_time(self, stage_layers) -> float:
        """Estimated per-iteration compute time of one pipeline stage."""
        return sum(
            self.compute.task_time_ns(layer.forward)
            + self.compute.task_time_ns(layer.input_grad)
            + self.compute.task_time_ns(layer.weight_grad)
            for layer in stage_layers
        )

    def _activation_send_bytes(self, microbatches: int) -> int:
        """Per-microbatch payload of one stage-boundary activation transfer."""
        declared = self.workload.pipeline_activation_bytes
        if declared <= 0:
            # Architectural proxy: the boundary tensor is on the order of one
            # layer's parameter footprint (hidden_size^2-ish weights vs
            # batch x hidden_size-ish activations at paper batch sizes).
            declared = max(
                self.workload.dtype_bytes,
                self.workload.total_params_bytes // max(1, self.workload.num_layers),
            )
        return max(1, declared // microbatches)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _run_compute(self, cost) -> Generator:
        if cost.flops <= 0 and cost.bytes_total <= 0:
            return
        _, finish = self.compute.execute(cost, self.sim.now)
        delay = finish - self.sim.now
        if delay > 0:
            yield delay

    def _wait_comm(self, handle: CollectiveHandle) -> Generator:
        if handle.done.fired:
            return
        waited_from = self.sim.now
        yield handle.done
        self._exposed_comm_ns += self.sim.now - waited_from

    def _on_finished(self, _signal) -> None:
        self._finished_at = self.sim.now

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    def _build_result(self) -> TrainingResult:
        assert self._finished_at is not None
        total_time = self._finished_at
        makespan = max(total_time, self.executor.fabric.last_activity())
        endpoint = self.executor.endpoint

        fwd_busy = fwd_span = bwd_busy = bwd_span = 0.0
        for breakdown in self._breakdowns:
            f_start, f_end = breakdown.forward_window
            b_start, b_end = breakdown.backward_window
            fwd_busy += endpoint.activity.busy_time(f_start, f_end)
            fwd_span += max(0.0, f_end - f_start)
            bwd_busy += endpoint.activity.busy_time(b_start, b_end)
            bwd_span += max(0.0, b_end - b_start)

        horizon = max(makespan, 1.0)
        # No fabric FIFO may have double-booked busy time — the failure mode
        # batched/coalesced booking could hide.
        self.executor.fabric.check_accounting(horizon)
        result = TrainingResult(
            system_name=self.system.name,
            workload_name=self.workload.name,
            num_npus=self.topology.num_nodes,
            iterations=self.iterations,
            total_time_ns=total_time,
            total_compute_ns=self.compute.total_compute_ns,
            exposed_comm_ns=self._exposed_comm_ns,
            bytes_injected=self.executor.fabric.bytes_injected,
            makespan_ns=makespan,
            iteration_breakdowns=list(self._breakdowns),
            endpoint_memory_read_bytes=endpoint.memory_read_bytes,
            endpoint_memory_write_bytes=endpoint.memory_write_bytes,
            endpoint_utilization_forward=(fwd_busy / fwd_span) if fwd_span > 0 else 0.0,
            endpoint_utilization_backward=(bwd_busy / bwd_span) if bwd_span > 0 else 0.0,
            network_utilization=self.executor.fabric.utilization(horizon),
            collectives_issued=len(self.executor.handles),
            compute_utilization_series=self.compute.utilization_series(
                horizon, self.UTILIZATION_WINDOW_NS
            ),
            network_utilization_series=self.executor.fabric.utilization_series(
                horizon, self.UTILIZATION_WINDOW_NS
            ),
        )
        result.extra.update(self._extra_metrics)
        return result


def _resolve_topology(topology: Union[Topology, int, tuple]) -> Topology:
    """Accept any Topology, an NPU count (canonical torus), or an (L, V, H) shape."""
    if isinstance(topology, Topology):
        return topology
    if isinstance(topology, int):
        return torus_from_shape(torus_shape_for_npus(topology))
    return torus_from_shape(tuple(topology))


def simulate_training(
    system: SystemConfig,
    workload: Workload,
    num_npus: Union[int, tuple, Topology] = 64,
    iterations: int = 2,
    chunk_bytes: Optional[int] = None,
    overlap_embedding: bool = False,
) -> TrainingResult:
    """Convenience wrapper: build a loop, run it, return the result.

    The network model, compute model, collective algorithm and
    parallelisation strategy are the ``system`` configuration's.
    """
    loop = TrainingLoop(
        system=system,
        topology=num_npus,
        workload=workload,
        iterations=iterations,
        chunk_bytes=chunk_bytes,
        overlap_embedding=overlap_embedding,
    )
    return loop.run()
