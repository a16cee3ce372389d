"""Collective executor: runs collective operations over the fabric and endpoint.

The executor is the simulator's equivalent of the communication runtime
(oneCCL / NCCL in the baselines, the ACE control program with ACE): it accepts
collective operations from the training loop, splits them into chunks
(Table III), admits chunks into the endpoint pipeline subject to the
endpoint's capacity, and walks each chunk through the phases of its
topology-aware plan, reserving endpoint processing and link bandwidth as it
goes.  Each step of that walk is one chunk event, and one handler runs
every chunk event of an executor that reaches the heap's head
(:func:`_chunk_step`).

Scheduling follows the paper: pending collectives are served LIFO by default
(the collectives of the first layers, issued last during back-propagation,
have the highest priority because the next forward pass needs them first);
FIFO is available for comparison.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.collectives.base import CollectiveOp, CollectivePlan
from repro.collectives.planner import AUTO, algorithm_implements, plan_collective
from repro.config.system import SystemConfig
from repro.endpoint.base import Endpoint, PhaseCost, PhaseWork
from repro.endpoint.factory import make_endpoint
from repro.errors import ConfigurationError, SchedulingError, SimulationError
from repro.network import make_network_backend
from repro.network.backend import NetworkBackend
from repro.network.messages import split_payload
from repro.network.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.process import Signal
from repro.sim.resources import BandwidthResource

_INF = float("inf")


class StageRow(NamedTuple):
    """One phase of a chunk's stage table, compiled for the executor's
    endpoint and fabric: what each chunk-phase books, prepared once."""

    #: The phase's endpoint-visible work at the table's chunk size.
    work: PhaseWork
    #: ``endpoint.phase_cost(work)``, which ``endpoint.process_phase`` books.
    cost: PhaseCost
    #: Whether the phase sends bytes on a dimension the fabric has.
    on_fabric: bool
    #: On a timeline fabric, an on-fabric phase's pipe, which the executor
    #: books inline; ``None`` otherwise.  Set only for positive send bytes.
    pipe: Optional[BandwidthResource]
    #: The latency the phase's later ring steps add to the pipe's finish.
    tail: float


#: A plan's phases at one chunk size, grouped into sequential stages.
StageTable = Tuple[Tuple[StageRow, ...], ...]


@dataclass
class CollectiveHandle:
    """Tracking object for one issued collective operation."""

    id: int
    name: str
    op: CollectiveOp
    payload_bytes: int
    issued_at: float
    done: Signal
    num_chunks: int
    chunks_completed: int = 0
    completed_at: Optional[float] = None
    plan: Optional[CollectivePlan] = None
    #: Set once the collective's launch overhead has been charged (on the
    #: admission of its first chunk).
    launched: bool = False

    @property
    def finished(self) -> bool:
        return self.completed_at is not None

    @property
    def duration_ns(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.issued_at


@dataclass
class _PendingCollective:
    handle: CollectiveHandle
    chunk_sizes: Deque[int] = field(default_factory=deque)


class _StageJoin:
    """Joins the fabric transfers of one event-mode stage.

    Completion-token pattern: the issuing frame holds one token of its own,
    so a backend whose ``transfer()`` delivers ``on_complete`` synchronously
    cannot drain the count to zero (and schedule the next stage twice) while
    transfers are still being issued.  The last token out schedules
    ``next_stage`` at the latest finish folded in, or now if that has passed.
    """

    __slots__ = ("sim", "finish", "next_stage", "outstanding")

    def __init__(self, sim: Simulator, finish: float, next_stage: tuple) -> None:
        self.sim = sim
        self.finish = finish
        #: ``(callback, *args)`` of the event that starts the next stage.
        self.next_stage = next_stage
        self.outstanding = 1

    def done(self, finish: float) -> None:
        """Fold ``finish`` into the stage finish and drop one token.

        Each transfer calls it as ``on_complete`` with its network finish;
        the issuing frame calls it last with the endpoint-ready times.
        """
        if finish > self.finish:
            self.finish = finish
        self.outstanding -= 1
        if self.outstanding == 0:
            now = self.sim.now
            finish = self.finish
            self.sim.schedule_at(now if now > finish else finish, *self.next_stage)


class CollectiveExecutor:
    """Chunk-level collective execution over a network backend.

    The backend is ``system.network_backend``: ``"symmetric"`` for the fast
    analytical model, ``"detailed"`` for the contention-aware per-link model,
    ``"hybrid"`` for per-link detail on one dimension.  A pre-built backend
    instance may be passed as ``fabric=``; it must have been built for the
    same topology the executor is given.
    """

    def __init__(
        self,
        sim: Simulator,
        system: SystemConfig,
        topology: Topology,
        endpoint: Optional[Endpoint] = None,
        fabric: Optional[NetworkBackend] = None,
        chunk_bytes: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.system = system
        self.topology = topology
        self.endpoint = endpoint or make_endpoint(system)
        if fabric is not None:
            fabric_topology = getattr(fabric, "topology", None)
            if (
                fabric_topology is None
                or fabric_topology.cache_key() != topology.cache_key()
            ):
                fabric_name = (
                    fabric_topology.name if fabric_topology is not None else "<none>"
                )
                raise ConfigurationError(
                    f"fabric/topology mismatch: the supplied fabric was built "
                    f"for topology {fabric_name!r} but the executor was given "
                    f"topology {topology.name!r}; build the fabric for the "
                    f"same topology (or omit fabric= and let the executor "
                    f"build it)"
                )
            self.fabric = fabric
        else:
            self.fabric = make_network_backend(
                system.network_backend, topology, system.network
            )
        self.chunk_bytes = chunk_bytes or system.ace.chunk_bytes
        if self.chunk_bytes <= 0:
            raise SchedulingError("chunk_bytes must be positive")
        self.scheduling = system.collective_scheduling
        # Configure the endpoint for the dominant (all-reduce) plan up front;
        # ACE programs its FSMs for these phases plus all-to-all.
        self._plans: Dict[CollectiveOp, CollectivePlan] = {}
        if topology.num_nodes > 1:
            self.endpoint.configure(self._plan(CollectiveOp.ALL_REDUCE))
        # Fixed by the endpoint's configuration; admission reads it per chunk.
        self._capacity = self.endpoint.chunk_capacity()
        self._stage_tables: Dict[Tuple[CollectiveOp, int], StageTable] = {}
        # Collectives with chunks left to admit, in issue order.  A
        # collective leaves the list when its last chunk is admitted, so
        # every entry still has chunks.
        self._pending: List[_PendingCollective] = []
        self._inflight_chunks = 0
        self._handles: List[CollectiveHandle] = []
        # Per executor, so a collective's id and default label do not
        # depend on what else the process simulated before.
        self._collective_ids = itertools.count()

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------
    def _plan(self, op: CollectiveOp) -> CollectivePlan:
        """Plan for ``op``, honouring the system's collective-algorithm knob.

        The knob pins the algorithm only for the operations it implements; a
        workload's other collectives (e.g. DLRM's all-to-all when an
        all-reduce algorithm is pinned) fall back to auto selection rather
        than failing the whole simulation.
        """
        if op not in self._plans:
            algorithm = self.system.collective_algorithm
            if algorithm != AUTO and not algorithm_implements(algorithm, op):
                algorithm = AUTO
            self._plans[op] = plan_collective(
                op,
                self.topology,
                algorithm=algorithm,
                network=self.system.network,
            )
        return self._plans[op]

    def stage_table(self, op: CollectiveOp, chunk_size: int) -> StageTable:
        """The stage rows of ``op``'s plan at ``chunk_size``, built once per executor.

        Every chunk of that size walks the same table, so the plan's stage
        grouping, each phase's :class:`PhaseWork` and endpoint cost, and on
        a timeline fabric each on-fabric phase's pipe and latency tail are
        computed once, not per chunk.  The table lives on the executor
        rather than on the (process-wide, cached) plan, so what one job
        builds never depends on the jobs that ran before it.
        """
        key = (op, chunk_size)
        table = self._stage_tables.get(key)
        if table is None:
            fabric = self.fabric
            timeline = not fabric.event_driven
            # Called through the classes, so wrappers installed on them see
            # every table build.
            stages = CollectivePlan.stages(self._plan(op))
            last = len(stages) - 1
            phase_index = 0
            rows = []
            for stage_index, stage in enumerate(stages):
                stage_rows = []
                for phase in stage:
                    work = PhaseWork.from_phase(
                        phase,
                        phase_index=phase_index,
                        chunk_bytes=chunk_size,
                        is_first=stage_index == 0,
                        is_last=stage_index == last,
                    )
                    on_fabric = work.send_bytes > 0 and fabric.has_dimension(phase.dimension)
                    pipe, tail = (
                        fabric.booking(phase.dimension, phase.steps)
                        if on_fabric and timeline
                        else (None, 0.0)
                    )
                    cost = self.endpoint.phase_cost(work)
                    stage_rows.append(StageRow(work, cost, on_fabric, pipe, tail))
                    phase_index += 1
                rows.append(tuple(stage_rows))
            table = self._stage_tables[key] = tuple(rows)
        return table

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------
    def issue(
        self,
        op: Union[str, CollectiveOp],
        payload_bytes: int,
        name: str = "",
    ) -> CollectiveHandle:
        """Issue a collective at the current simulation time."""
        op = CollectiveOp(op)
        if payload_bytes <= 0:
            raise SchedulingError(f"collective payload must be positive, got {payload_bytes}")
        handle_id = next(self._collective_ids)
        label = name or f"{op.value}-{handle_id}"
        plan = self._plan(op)
        if self.topology.num_nodes <= 1 or not plan.phases:
            # Single-node "collective": nothing to communicate.
            handle = CollectiveHandle(
                id=handle_id,
                name=label,
                op=op,
                payload_bytes=payload_bytes,
                issued_at=self.sim.now,
                done=Signal(f"{label}.done"),
                num_chunks=0,
                completed_at=self.sim.now,
                plan=plan,
            )
            handle.done.fire(self.sim, handle)
            self._handles.append(handle)
            return handle
        chunk_sizes = split_payload(payload_bytes, self.chunk_bytes)
        handle = CollectiveHandle(
            id=handle_id,
            name=label,
            op=op,
            payload_bytes=payload_bytes,
            issued_at=self.sim.now,
            done=Signal(f"{label}.done"),
            num_chunks=len(chunk_sizes),
            plan=plan,
        )
        self._handles.append(handle)
        self._pending.append(_PendingCollective(handle, deque(chunk_sizes)))
        self._try_admit()
        return handle

    # ------------------------------------------------------------------
    # Admission and chunk execution
    # ------------------------------------------------------------------
    def _try_admit(self) -> None:
        """Admit chunks while the endpoint has room, LIFO or FIFO by collective."""
        capacity = self._capacity
        pending = self._pending
        index = -1 if self.scheduling == "lifo" else 0
        while self._inflight_chunks < capacity and pending:
            served = pending[index]
            chunk_size = served.chunk_sizes.popleft()
            if not served.chunk_sizes:
                pending.pop(index)
            self._admit_chunk(served.handle, chunk_size)

    def _admit_chunk(self, handle: CollectiveHandle, chunk_size: int) -> None:
        """Admit one chunk: it will walk its plan stages as chunk events.

        Every resource reservation is made at the simulation time the stage
        actually starts (not at admission time), so FIFO resources are always
        requested in chronological order and idle gaps are never skipped over.
        """
        self._inflight_chunks += 1
        start = self.sim.now
        if not handle.launched:
            # Per-collective launch cost: communication-kernel launch and
            # scheduling for the baselines, the NPU-AFI command interface for
            # ACE, nothing for the ideal system.
            start += self.system.collective_launch_overhead_ns
            handle.launched = True
        admitted_at = self.sim.now
        self.sim.schedule_at(start, _chunk_step, self, handle, None, chunk_size, -1, admitted_at)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def handles(self) -> List[CollectiveHandle]:
        return list(self._handles)


def _chunk_step(
    executor: CollectiveExecutor,
    handle: CollectiveHandle,
    table: Optional[StageTable],
    chunk_size: int,
    step: int,
    admitted_at: float,
) -> None:
    """Run one chunk event of ``executor``, then every one that reaches the heap's head.

    A chunk's events are its steps: ``-1`` stages it (``ingress``, which
    also looks its stage table up), ``0 .. len(table) - 1`` run its stages,
    ``len(table)`` commits it (``egress``) and ``len(table) + 1`` retires
    it and admits more chunks.  Each step but the last schedules the next
    at its finish, with the ``seq`` draw and the time check of
    :meth:`Simulator.schedule_at`; an event-mode stage leaves that to its
    :class:`_StageJoin`, once the stage's transfers are done, and returns.

    After any other step, while the heap's head is a chunk event of this
    executor, the handler pops it, moves the clock, counts it as
    :meth:`Simulator.run` would and runs it here, without a return to the
    run loop; a continuation that would itself be the head is run without
    the push and the pop.  Events still run in ``(time, seq)`` order with
    the keys and the count they would have had one by one, so every
    booking, result and :attr:`Simulator.events_processed` is what the run
    loop would give.  An event-mode stage does not look at the head: the
    events its transfers just scheduled are nearly always next, and the
    look would cost more than the pops it saves.  The handler is a plain
    function taking the executor, so heap entries hold no bound method of
    it.
    """
    sim = executor.sim
    queue = sim._queue
    endpoint = executor.endpoint
    while True:
        now = sim.now
        if step < 0:
            finish = endpoint.ingress(chunk_size, now)
            table = executor.stage_table(handle.op, chunk_size)
        elif step < len(table):
            fabric = executor.fabric
            if fabric.event_driven:
                # Each on-fabric phase is handed to ``fabric.transfer``; the
                # join folds in every endpoint-ready time at issue and every
                # network finish on completion, and schedules the next step
                # at the largest, whatever the order.
                join = _StageJoin(
                    sim,
                    now,
                    (_chunk_step, executor, handle, table, chunk_size, step + 1, admitted_at),
                )
                stage_finish = now
                for work, cost, on_fabric, _, _ in table[step]:
                    ready = endpoint.process_phase(cost, now)
                    if ready > stage_finish:
                        stage_finish = ready
                    if on_fabric:
                        join.outstanding += 1
                        fabric.transfer(sim, work.dimension, work.send_bytes, work.steps, join.done)
                join.done(stage_finish)
                return
            # Timeline mode: the stage ends when its slowest phase has both
            # cleared the endpoint and crossed the fabric (its pipe, then the
            # row's tail).  The comparisons return exactly what ``max`` would.
            finish = now
            for work, cost, _, pipe, tail in table[step]:
                phase_finish = endpoint.process_phase(cost, now)
                if pipe is not None:
                    # ``pipe.reserve_times(work.send_bytes, now)``, booked here
                    # with its arithmetic in its order.  A row holds a pipe
                    # only for positive send bytes, so its ``not num_bytes >=
                    # 0`` check cannot fail.
                    num_bytes = work.send_bytes
                    free = pipe._next_free
                    start = now if now > free else free
                    serialization = num_bytes / pipe.bandwidth_gbps
                    end = start + serialization
                    pipe._next_free = end
                    pipe._busy_time += serialization
                    pipe._bytes_moved += num_bytes
                    tracer = pipe.trace
                    # ``end > start`` is false for a serialization the
                    # start time absorbs: record() drops it.
                    if tracer is not None and end > start:
                        starts = tracer._starts
                        ends = tracer._ends
                        if ends and starts[-1] <= start <= ends[-1]:
                            if end > ends[-1]:
                                ends[-1] = end
                        else:
                            starts.append(start)
                            ends.append(end)
                        tracer._merged = None
                    network_finish = end + pipe.latency_ns + tail
                    if network_finish > phase_finish:
                        phase_finish = network_finish
                if phase_finish > finish:
                    finish = phase_finish
        elif step == len(table):
            finish = endpoint.egress(chunk_size, now)
            endpoint.activity.record(admitted_at, finish)
        else:
            executor._inflight_chunks -= 1
            handle.chunks_completed += 1
            if handle.chunks_completed >= handle.num_chunks and not handle.finished:
                handle.completed_at = now
                handle.done.fire(sim, handle)
            executor._try_admit()
            finish = None
        if finish is not None:
            if not now <= finish < _INF:
                raise SimulationError(
                    f"cannot schedule event at t={finish}: event times must be finite "
                    f"and no earlier than the current time t={now}"
                )
            seq = sim._seq
            sim._seq = seq + 1
            step += 1
            # The fresh ``seq`` is the largest drawn, so the continuation
            # would be the heap's head exactly when it is earlier.
            if not queue or finish < queue[0][0]:
                sim.now = finish
                sim._processed += 1
                continue
            heappush(
                queue,
                [finish, seq, _chunk_step, (executor, handle, table, chunk_size, step, admitted_at)],
            )
        if not queue:
            return
        head = queue[0]
        args = head[3]
        if head[2] is not _chunk_step or args[0] is not executor:
            return
        heappop(queue)
        sim.now = head[0]
        sim._processed += 1
        _, handle, table, chunk_size, step, admitted_at = args
