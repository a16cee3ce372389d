"""Reference implementations the tests compare the simulator against.

* Functional collectives over numpy arrays (one array per node): the
  element-wise oracles (:func:`all_reduce`, :func:`reduce_scatter`,
  :func:`all_gather`, :func:`all_to_all`) define what every node must hold
  afterwards, and the step-by-step ring, recursive halving-doubling,
  double-binary-tree and direct algorithms move the data node by node, as
  the plan builders in :mod:`repro.collectives` account for it.
* :func:`one_f_one_b_schedule` builds an explicit 1F1B pipeline schedule, so
  the closed-form :func:`repro.training.parallelism.pipeline_bubble_fraction`
  is checked against a real schedule.
* :func:`max_disagreement` is the quantity the model-agreement bounds gate.
* :class:`PerHopEventBackend` is the detailed network backend with every
  message hop its own simulator event, the walk that
  :class:`~repro.sim.engine.HopLane` must book identically;
  :class:`PerMessageWalk` turns off coalescing in either backend, so every
  transfer walks message by message.
* :class:`EventChainExecutor` is the collective executor with one heap
  event per chunk step, run from :meth:`Simulator.run`, and the timeline
  stage before stage rows carried prepared bookings: per chunk it prices
  each phase, books the fabric through ``reserve`` and reads the endpoint's
  capacity.  :func:`per_chunk_endpoint` builds the endpoint it prices with,
  whose :class:`PerChunkAceEndpoint` and :class:`PerChunkBaselineEndpoint`
  keep the per-chunk phase arithmetic the prepared costs must reproduce and
  book every DMA and phase leg through ``reserve_times``.
* :func:`feasible_algorithms` asks the planner which algorithms run an
  operation on a fabric.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.collectives.base import CollectiveOp
from repro.collectives.planner import algorithms, plan_collective
from repro.config.system import EndpointKind, SystemConfig
from repro.endpoint import AceEndpoint, BaselineEndpoint, Endpoint, PhaseWork, make_endpoint
from repro.errors import CollectiveError, SchedulingError, WorkloadError
from repro.network.detailed import Carving, DetailedBackend
from repro.network.topology import Topology
from repro.sim.engine import Simulator
from repro.training.comm import CollectiveExecutor, StageTable, _StageJoin


def _check_same_shape(arrays: Sequence[np.ndarray]) -> None:
    if not arrays:
        raise CollectiveError("need at least one node's data")
    shape = arrays[0].shape
    for i, arr in enumerate(arrays):
        if arr.shape != shape:
            raise CollectiveError(
                f"node {i} has shape {arr.shape}, expected {shape}"
            )


def all_reduce(arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Every node ends with the element-wise sum of all nodes' data."""
    _check_same_shape(arrays)
    total = np.sum(np.stack([np.asarray(a, dtype=np.float64) for a in arrays]), axis=0)
    return [total.copy() for _ in arrays]


def reduce_scatter(arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Node ``i`` ends with the ``i``-th equal shard of the element-wise sum.

    The data length must be divisible by the number of nodes (the simulator
    pads payloads the same way real collective libraries do).
    """
    _check_same_shape(arrays)
    num_nodes = len(arrays)
    flat = [np.asarray(a, dtype=np.float64).ravel() for a in arrays]
    length = flat[0].size
    if length % num_nodes != 0:
        raise CollectiveError(
            f"data length {length} not divisible by {num_nodes} nodes"
        )
    total = np.sum(np.stack(flat), axis=0)
    shard = length // num_nodes
    return [total[i * shard : (i + 1) * shard].copy() for i in range(num_nodes)]


def all_gather(shards: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Every node ends with the concatenation of all nodes' shards."""
    if not shards:
        raise CollectiveError("need at least one node's data")
    gathered = np.concatenate([np.asarray(s, dtype=np.float64).ravel() for s in shards])
    return [gathered.copy() for _ in shards]


def all_to_all(arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Node ``i`` ends with the concatenation of shard ``i`` from every node.

    Each node's input is split into ``num_nodes`` equal shards; shard ``j`` of
    node ``i`` is delivered to node ``j``.  This is the embedding-exchange
    pattern DLRM uses (Section II).
    """
    _check_same_shape(arrays)
    num_nodes = len(arrays)
    flat = [np.asarray(a, dtype=np.float64).ravel() for a in arrays]
    length = flat[0].size
    if length % num_nodes != 0:
        raise CollectiveError(
            f"data length {length} not divisible by {num_nodes} nodes"
        )
    shard = length // num_nodes
    out: List[np.ndarray] = []
    for dst in range(num_nodes):
        pieces = [flat[src][dst * shard : (dst + 1) * shard] for src in range(num_nodes)]
        out.append(np.concatenate(pieces))
    return out


def split_shards(array: np.ndarray, num_shards: int) -> List[np.ndarray]:
    """Split ``array`` into ``num_shards`` equal shards (raises if not divisible)."""
    flat = np.asarray(array, dtype=np.float64).ravel()
    if num_shards <= 0:
        raise CollectiveError(f"num_shards must be positive, got {num_shards}")
    if flat.size % num_shards != 0:
        raise CollectiveError(
            f"array of size {flat.size} not divisible into {num_shards} shards"
        )
    shard = flat.size // num_shards
    return [flat[i * shard : (i + 1) * shard].copy() for i in range(num_shards)]


# ---------------------------------------------------------------------------
# Step-by-step algorithms
# ---------------------------------------------------------------------------


def ring_reduce_scatter(arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Ring reduce-scatter: node ``i`` ends with shard ``i`` of the global sum.

    Implements the classic (n-1)-step algorithm: in step ``s`` node ``i``
    sends the partial shard ``(i - s) mod n`` to node ``i+1`` and reduces the
    shard it receives from node ``i-1`` into its local copy.
    """
    num_nodes = len(arrays)
    if num_nodes < 2:
        raise CollectiveError("ring reduce-scatter needs at least 2 nodes")
    shards = [split_shards(a, num_nodes) for a in arrays]
    for step in range(num_nodes - 1):
        sends = []
        for node in range(num_nodes):
            shard_idx = (node - step) % num_nodes
            sends.append((node, (node + 1) % num_nodes, shard_idx, shards[node][shard_idx].copy()))
        for _, dst, shard_idx, data in sends:
            shards[dst][shard_idx] = shards[dst][shard_idx] + data
    return [shards[node][(node + 1) % num_nodes].copy() for node in range(num_nodes)]


def ring_all_gather(shards: Sequence[np.ndarray], owner_offset: int = 1) -> List[np.ndarray]:
    """Ring all-gather: every node ends with the concatenation of all shards.

    ``owner_offset`` states which global shard index node ``i`` holds on
    entry: shard ``(i + owner_offset) mod n``.  The reduce-scatter above
    leaves node ``i`` holding shard ``i+1``, hence the default of 1.
    """
    num_nodes = len(shards)
    if num_nodes < 2:
        raise CollectiveError("ring all-gather needs at least 2 nodes")
    shard_size = np.asarray(shards[0]).size
    collected: List[List[np.ndarray]] = [[None] * num_nodes for _ in range(num_nodes)]  # type: ignore[list-item]
    for node in range(num_nodes):
        arr = np.asarray(shards[node], dtype=np.float64).ravel()
        if arr.size != shard_size:
            raise CollectiveError("all shards must have the same size")
        collected[node][(node + owner_offset) % num_nodes] = arr.copy()
    # In step s, node i forwards the shard it obtained s steps ago to node i+1.
    for step in range(num_nodes - 1):
        sends = []
        for node in range(num_nodes):
            shard_idx = (node + owner_offset - step) % num_nodes
            sends.append((node, (node + 1) % num_nodes, shard_idx, collected[node][shard_idx].copy()))
        for _, dst, shard_idx, data in sends:
            collected[dst][shard_idx] = data
    return [np.concatenate(collected[node]) for node in range(num_nodes)]


def ring_all_reduce(arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Ring all-reduce = ring reduce-scatter followed by ring all-gather."""
    reduced_shards = ring_reduce_scatter(arrays)
    return ring_all_gather(reduced_shards, owner_offset=1)


def halving_doubling_all_reduce(arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Functional recursive halving-doubling all-reduce.

    Every node ends with the element-wise sum of all inputs.  Raises
    :class:`CollectiveError` unless the node count is a power of two.
    """
    num_nodes = len(arrays)
    if num_nodes < 2:
        raise CollectiveError("halving-doubling needs at least 2 nodes")
    if num_nodes & (num_nodes - 1):
        raise CollectiveError(
            f"halving-doubling requires a power-of-two node count, got {num_nodes}"
        )
    data = [np.asarray(a, dtype=np.float64).ravel().copy() for a in arrays]
    length = data[0].size
    for arr in data:
        if arr.size != length:
            raise CollectiveError("all nodes must hold the same number of elements")

    # Recursive halving (reduce-scatter on index ranges).
    ranges = [(0, length) for _ in range(num_nodes)]
    distance = num_nodes // 2
    while distance >= 1:
        new_ranges = list(ranges)
        updates = []
        for node in range(num_nodes):
            peer = node ^ distance
            lo, hi = ranges[node]
            mid = (lo + hi) // 2
            if node < peer:
                keep = (lo, mid)
                send = (mid, hi)
            else:
                keep = (mid, hi)
                send = (lo, mid)
            updates.append((node, peer, keep, send))
        for node, peer, keep, send in updates:
            new_ranges[node] = keep
        contributions = []
        for node, peer, keep, send in updates:
            # Peer's kept half equals this node's sent half.
            contributions.append((peer, send, data[node][send[0] : send[1]].copy()))
        for peer, seg, values in contributions:
            data[peer][seg[0] : seg[1]] += values
        ranges = new_ranges
        distance //= 2

    # Recursive doubling (all-gather of the owned ranges).
    distance = 1
    while distance < num_nodes:
        transfers = []
        for node in range(num_nodes):
            peer = node ^ distance
            lo, hi = ranges[node]
            transfers.append((peer, (lo, hi), data[node][lo:hi].copy()))
        new_ranges = list(ranges)
        for peer, (lo, hi), values in transfers:
            data[peer][lo:hi] = values
            plo, phi = new_ranges[peer]
            new_ranges[peer] = (min(plo, lo), max(phi, hi))
        ranges = new_ranges
        distance *= 2
    return data


def _tree_parent(node: int, num_nodes: int, shift: int) -> int:
    """Parent of ``node`` in a simple shifted binary tree over ``num_nodes`` nodes."""
    index = (node + shift) % num_nodes
    if index == 0:
        return -1
    parent_index = (index - 1) // 2
    return (parent_index - shift) % num_nodes


def _tree_children(node: int, num_nodes: int, shift: int) -> List[int]:
    index = (node + shift) % num_nodes
    children = []
    for child_index in (2 * index + 1, 2 * index + 2):
        if child_index < num_nodes:
            children.append((child_index - shift) % num_nodes)
    return children


def _tree_depth(node: int, num_nodes: int, shift: int) -> int:
    depth = 0
    current = node
    while True:
        parent = _tree_parent(current, num_nodes, shift)
        if parent < 0:
            return depth
        current = parent
        depth += 1
        if depth > num_nodes:
            raise CollectiveError("tree structure contains a cycle")


def double_binary_tree_all_reduce(arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Functional double-binary-tree all-reduce (every node ends with the sum)."""
    num_nodes = len(arrays)
    if num_nodes < 2:
        raise CollectiveError("tree all-reduce needs at least 2 nodes")
    data = [np.asarray(a, dtype=np.float64).ravel().copy() for a in arrays]
    length = data[0].size
    for arr in data:
        if arr.size != length:
            raise CollectiveError("all nodes must hold the same number of elements")
    half = length // 2
    segments = [(0, half), (half, length)]
    result = [arr.copy() for arr in data]
    for tree_id, (lo, hi) in enumerate(segments):
        if hi <= lo:
            continue
        shift = 0 if tree_id == 0 else num_nodes // 2
        # Reduce phase: accumulate children into parents, bottom-up.
        partial: Dict[int, np.ndarray] = {n: data[n][lo:hi].copy() for n in range(num_nodes)}
        order = sorted(
            range(num_nodes),
            key=lambda n: -_tree_depth(n, num_nodes, shift),
        )
        for node in order:
            parent = _tree_parent(node, num_nodes, shift)
            if parent >= 0:
                partial[parent] = partial[parent] + partial[node]
        root = (-shift) % num_nodes
        reduced = partial[root]
        # Broadcast phase: every node receives the root's segment.
        for node in range(num_nodes):
            result[node][lo:hi] = reduced
    return result


def direct_all_to_all(arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Direct all-to-all: every pair exchanges its shard directly."""
    return all_to_all(arrays)


# ---------------------------------------------------------------------------
# Pipeline schedule and model agreement
# ---------------------------------------------------------------------------


def one_f_one_b_schedule(
    num_stages: int,
    num_microbatches: int,
    forward_slot: float = 1.0,
    backward_slot: float = 1.0,
) -> float:
    """Makespan of an explicitly-built 1F1B schedule, in slot-time units.

    Builds the per-stage operation order (warmup forwards, steady-state
    one-forward-one-backward, backward drain), resolves cross-stage
    dependencies (forward ``m`` needs the upstream forward ``m``; backward
    ``m`` needs the downstream backward ``m``) to a fixed point, and returns
    the completion time of the last backward on stage 0.  Used by the
    property tests to confirm :func:`pipeline_bubble_fraction` against a real
    schedule rather than trusting the closed form.
    """
    if num_stages < 1:
        raise WorkloadError(f"num_stages must be >= 1, got {num_stages}")
    if num_microbatches < 1:
        raise WorkloadError(f"num_microbatches must be >= 1, got {num_microbatches}")
    if forward_slot < 0 or backward_slot < 0:
        raise WorkloadError("slot times cannot be negative")
    S, M = num_stages, num_microbatches
    orders: List[List[Tuple[str, int]]] = []
    for stage in range(S):
        warmup = min(S - 1 - stage, M)
        order: List[Tuple[str, int]] = [("F", m) for m in range(warmup)]
        issued_b = 0
        for m in range(warmup, M):
            order.append(("F", m))
            order.append(("B", issued_b))
            issued_b += 1
        order.extend(("B", m) for m in range(issued_b, M))
        orders.append(order)

    durations = {"F": forward_slot, "B": backward_slot}
    finish: Dict[Tuple[str, int, int], float] = {}
    # The dependency graph is a DAG but backward deps point up-stage, so a
    # single stage-ordered sweep cannot resolve it; iterate sweeps until the
    # least fixed point (bounded by the op count) is reached.
    for _ in range(2 * S * M + 2):
        changed = False
        for stage in range(S):
            previous_end = 0.0
            for kind, m in orders[stage]:
                if kind == "F" and stage > 0:
                    dep = finish.get(("F", stage - 1, m), 0.0)
                elif kind == "B" and stage < S - 1:
                    dep = finish.get(("B", stage + 1, m), 0.0)
                else:
                    dep = 0.0
                end = max(previous_end, dep) + durations[kind]
                key = (kind, stage, m)
                if finish.get(key) != end:
                    finish[key] = end
                    changed = True
                previous_end = end
        if not changed:
            return max(finish.values())
    raise WorkloadError(
        f"1F1B schedule for {S} stages x {M} microbatches did not converge"
    )


def max_disagreement(rows: Sequence[Dict[str, object]]) -> float:
    """The largest agreement metric across model-agreement rows."""
    return max(max(float(row["time_rel_err"]), float(row["exposed_delta_frac"])) for row in rows)


# ---------------------------------------------------------------------------
# Per-hop event walk
# ---------------------------------------------------------------------------


class PerHopEventBackend(DetailedBackend):
    """:class:`DetailedBackend` with one heap event per message hop.

    Its contended walk schedules a ``hop`` closure at every hop's arrival
    and books the hop through ``reserve_times`` when that event fires; the
    coalesced ``_bulk_step`` path is inherited unchanged.
    """

    def _hop_messages(
        self,
        sim: Simulator,
        dimension: str,
        carving: Carving,
        step: int,
        ready: Optional[List[float]],
        on_complete: Callable[[float], None],
    ) -> None:
        link, steps, num_messages, bytes_per_port, _ = carving
        reserve_times = link.reserve_times
        schedule_at = sim.schedule_at
        issuing = self._issuing
        outstanding = num_messages
        finish = sim.now

        def hop(step: int) -> None:
            nonlocal outstanding, finish
            _, arrival = reserve_times(bytes_per_port, sim.now)
            if step + 1 < steps:
                schedule_at(arrival, hop, step + 1)
                return
            outstanding -= 1
            if arrival > finish:
                finish = arrival
            if outstanding == 0:
                issuing[dimension] -= 1
                schedule_at(finish, on_complete, finish)

        if ready is None:
            for _ in range(num_messages):
                hop(step)
        else:
            for ready_m in ready:
                schedule_at(ready_m, hop, step)


class PerMessageWalk:
    """Mixin for a :class:`DetailedBackend` that never coalesces.

    Every transfer walks message by message from its first step, even as its
    dimension's sole issuer: the reference the coalesced ``_bulk_step`` path
    is compared against.
    """

    def transfer(
        self,
        sim: Simulator,
        dimension: str,
        num_bytes: float,
        steps: int,
        on_complete: Callable[[float], None],
    ) -> None:
        if sim is not self._sim:
            self._bind(sim)
        carving = self._carve(dimension, num_bytes, steps)
        self._issuing[dimension] += 1
        self._hop_messages(sim, dimension, carving, 0, None, on_complete)


class PerMessageBackend(PerMessageWalk, DetailedBackend):
    """:class:`DetailedBackend` walking every transfer per message."""


class PerMessageHopEventBackend(PerMessageWalk, PerHopEventBackend):
    """:class:`PerHopEventBackend` walking every transfer per message."""


# ---------------------------------------------------------------------------
# Per-chunk timeline stage
# ---------------------------------------------------------------------------


class PerChunkAceEndpoint(AceEndpoint):
    """:class:`AceEndpoint` that prices every chunk-phase as it runs it.

    ``phase_cost`` hands the work through; ``process_phase`` looks the
    phase's FSMs up and computes the occupancy from the work each time.
    Each DMA books its engine, the bus and its HBM channel through
    ``reserve_times``, one call per leg.
    """

    def _dma(self, engine, channel, num_bytes: float, earliest_start: float) -> float:
        finish = engine.reserve_times(num_bytes, earliest_start)[1]
        leg = self._bus.reserve_times(num_bytes, earliest_start)[1]
        if leg > finish:
            finish = leg
        leg = channel.reserve_times(num_bytes, earliest_start)[1]
        if leg > finish:
            finish = leg
        return finish

    def phase_cost(self, work: PhaseWork) -> PhaseWork:
        return work

    def process_phase(self, work: PhaseWork, earliest_start: float) -> float:
        try:
            fsms = self._fsms[work.phase_name]
        except KeyError:
            raise SchedulingError(f"no FSM programmed for phase {work.phase_name!r}") from None
        reduce_bytes = work.reduce_bytes
        touched_bytes = work.send_bytes + reduce_bytes + work.forward_bytes
        sram_time = touched_bytes / self._sram_bandwidth_gbps if touched_bytes else 0.0
        alu_time = reduce_bytes / self._alu_throughput_gbps if reduce_bytes else 0.0
        steps = work.steps
        control_time = (
            self.PHASE_CONTROL_OVERHEAD_CYCLES * self._cycle_ns * (steps if steps > 1 else 1)
        )
        duration = (alu_time if alu_time > sram_time else sram_time) + control_time
        return fsms.acquire(earliest_start, duration)[2]


class PerChunkBaselineEndpoint(BaselineEndpoint):
    """:class:`BaselineEndpoint` that prices every chunk-phase as it runs it.

    ``phase_cost`` hands the work through; ``process_phase`` computes the
    Section VI-A read, bus and write bytes from the work each time and books
    each leg through ``reserve_times``.
    """

    def phase_cost(self, work: PhaseWork) -> PhaseWork:
        return work

    def process_phase(self, work: PhaseWork, earliest_start: float) -> float:
        read_bytes = work.send_bytes + work.reduce_bytes + work.forward_bytes
        write_bytes = work.reduce_bytes + work.forward_bytes
        if work.is_last:
            write_bytes += work.send_bytes
        finish = earliest_start
        if read_bytes > 0:
            finish = self._hbm_read.reserve_times(read_bytes, earliest_start)[1]
            sm_finish = self._sm_pipe.reserve_times(read_bytes, earliest_start)[1]
            if sm_finish > finish:
                finish = sm_finish
            bus_finish = self._bus.reserve_times(
                work.send_bytes + work.forward_bytes, earliest_start
            )[1]
            if bus_finish > finish:
                finish = bus_finish
        self._write_bytes += write_bytes
        return finish + self.PHASE_SOFTWARE_LATENCY_NS


def per_chunk_endpoint(system: SystemConfig) -> Endpoint:
    """The endpoint of ``system`` that prices each chunk-phase as it runs it
    (the ideal endpoint's one cycle has nothing to price)."""
    if system.endpoint is EndpointKind.ACE:
        return PerChunkAceEndpoint(system)
    if system.endpoint.is_baseline:
        return PerChunkBaselineEndpoint(system)
    return make_endpoint(system)


class EventChainExecutor(CollectiveExecutor):
    """:class:`CollectiveExecutor` with every chunk step its own heap event.

    The executor's callback chain before its chunk events ran back to back:
    admission schedules ``_start_chunk`` (``ingress``), which schedules
    ``_start_stage`` per stage and ``_chunk_done`` after ``egress``, each
    through ``schedule_at`` and each run from :meth:`Simulator.run`.  A
    timeline stage prices each chunk-phase as it runs it
    (``process_phase(phase_cost(work), now)``) and books the fabric through
    ``fabric.reserve(dimension, send_bytes, now, steps).finish``, and each
    admission round reads ``endpoint.chunk_capacity()``; it takes only each
    row's ``work`` and ``on_fabric`` from the stage table.  The executor's
    chunk loop and compiled rows (prepared cost, pipe and tail, booked
    inline) must book identically.
    """

    def _try_admit(self) -> None:
        self._capacity = self.endpoint.chunk_capacity()
        super()._try_admit()

    def _admit_chunk(self, handle, chunk_size: int) -> None:
        self._inflight_chunks += 1
        start = self.sim.now
        if not handle.launched:
            start += self.system.collective_launch_overhead_ns
            handle.launched = True
        self.sim.schedule_at(start, self._start_chunk, handle, chunk_size, self.sim.now)

    def _start_chunk(self, handle, chunk_size: int, admitted_at: float) -> None:
        staged = self.endpoint.ingress(chunk_size, self.sim.now)
        table = self.stage_table(handle.op, chunk_size)
        self.sim.schedule_at(staged, self._start_stage, handle, table, chunk_size, 0, admitted_at)

    def _start_stage(
        self,
        handle,
        table: StageTable,
        chunk_size: int,
        stage_index: int,
        admitted_at: float,
    ) -> None:
        now = self.sim.now
        if stage_index == len(table):
            done_at = self.endpoint.egress(chunk_size, now)
            self.endpoint.activity.record(admitted_at, done_at)
            self.sim.schedule_at(done_at, self._chunk_done, handle)
            return
        if self.fabric.event_driven:
            self._start_event_stage(handle, table, chunk_size, stage_index, admitted_at)
            return
        endpoint = self.endpoint
        stage_finish = now
        for row in table[stage_index]:
            work = row.work
            finish = endpoint.process_phase(endpoint.phase_cost(work), now)
            if row.on_fabric:
                network_finish = self.fabric.reserve(
                    work.dimension, work.send_bytes, now, work.steps
                ).finish
                if network_finish > finish:
                    finish = network_finish
            if finish > stage_finish:
                stage_finish = finish
        self.sim.schedule_at(
            stage_finish,
            self._start_stage,
            handle,
            table,
            chunk_size,
            stage_index + 1,
            admitted_at,
        )

    def _start_event_stage(
        self,
        handle,
        table: StageTable,
        chunk_size: int,
        stage_index: int,
        admitted_at: float,
    ) -> None:
        now = self.sim.now
        join = _StageJoin(
            self.sim,
            now,
            (self._start_stage, handle, table, chunk_size, stage_index + 1, admitted_at),
        )
        stage_finish = now
        for work, cost, on_fabric, _, _ in table[stage_index]:
            ready = self.endpoint.process_phase(cost, now)
            if ready > stage_finish:
                stage_finish = ready
            if on_fabric:
                join.outstanding += 1
                self.fabric.transfer(
                    self.sim, work.dimension, work.send_bytes, work.steps, join.done
                )
        join.done(stage_finish)

    def _chunk_done(self, handle) -> None:
        self._inflight_chunks -= 1
        handle.chunks_completed += 1
        if handle.chunks_completed >= handle.num_chunks and not handle.finished:
            handle.completed_at = self.sim.now
            handle.done.fire(self.sim, handle)
        self._try_admit()


# ---------------------------------------------------------------------------
# Planner feasibility
# ---------------------------------------------------------------------------


def feasible_algorithms(op: Union[str, CollectiveOp], topology: Topology) -> List[str]:
    """The algorithms :func:`plan_collective` accepts for ``op`` on
    ``topology``, in the planner's table order."""
    feasible = []
    for name in algorithms():
        try:
            plan_collective(op, topology, algorithm=name)
        except CollectiveError:
            continue
        feasible.append(name)
    return feasible
