"""Programmable FSM pool (Section IV-F).

The ACE control unit is a set of programmable finite state machines.  Each
FSM is programmed for one phase of one collective algorithm (and can
additionally be programmed for single-phase collectives such as all-to-all);
each holds a queue of chunks it processes in order.  Multiple FSMs programmed
for the same phase allow chunks of that phase to be processed out of order
with respect to each other, which is what fills the network pipeline.

The timing model is slot-based: an FSM is occupied for the duration of the
chunk-phase it is driving, so the number of FSMs bounds the number of
chunk-phases in flight simultaneously — the behaviour the design-space
exploration of Fig. 9a sweeps.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import ResourceError, SchedulingError
from repro.sim.resources import SlotResource


class FsmPool:
    """Pool of programmable FSMs with per-phase assignment."""

    def __init__(self, num_fsms: int) -> None:
        if num_fsms <= 0:
            raise ResourceError(f"need at least one FSM, got {num_fsms}")
        self.num_fsms = num_fsms
        self._assignment: Dict[str, List[int]] = {}
        #: Per phase: the slot pool it draws from and the FSM id of each slot.
        self._per_phase: Dict[str, Tuple[SlotResource, List[int]]] = {}

    # ------------------------------------------------------------------
    # Programming
    # ------------------------------------------------------------------
    def program(self, phase_names: List[str]) -> Dict[str, List[int]]:
        """Assign FSMs to phases round-robin (every phase gets at least one).

        When the pool has at least as many FSMs as phases, each phase receives
        a dedicated group of FSMs (Section IV-F).  Smaller pools — explored in
        the Fig. 9a design-space sweep — time-share every FSM across all
        phases, which the model represents by having all phases draw from one
        shared slot pool.
        """
        if not phase_names:
            raise SchedulingError("cannot program an FSM pool with zero phases")
        unique_names = list(dict.fromkeys(phase_names))
        if len(unique_names) <= self.num_fsms:
            assignment: Dict[str, List[int]] = {name: [] for name in unique_names}
            for fsm_id in range(self.num_fsms):
                phase = unique_names[fsm_id % len(unique_names)]
                assignment[phase].append(fsm_id)
            per_phase = {
                phase: (SlotResource(f"fsm[{phase}]", len(fsms)), fsms)
                for phase, fsms in assignment.items()
            }
        else:
            all_fsms = list(range(self.num_fsms))
            assignment = {name: list(all_fsms) for name in unique_names}
            shared = SlotResource("fsm[shared]", self.num_fsms)
            per_phase = {phase: (shared, fsms) for phase, fsms in assignment.items()}
        self._assignment = assignment
        self._per_phase = per_phase
        return dict(assignment)

    @property
    def programmed(self) -> bool:
        return bool(self._assignment)

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------
    def acquire(self, phase: str, earliest_start: float, duration: float) -> Tuple[int, float, float]:
        """Occupy one FSM programmed for ``phase`` for ``duration`` ns."""
        try:
            pool, fsm_ids = self._per_phase[phase]
        except KeyError:
            raise SchedulingError(f"no FSM programmed for phase {phase!r}") from None
        slot, start, finish = pool.acquire(earliest_start, duration)
        return fsm_ids[slot], start, finish

    def _pools(self) -> List[SlotResource]:
        """The distinct slot pools; shared programming maps every phase to one."""
        return list(dict.fromkeys(pool for pool, _ in self._per_phase.values()))

    def utilization(self, horizon_ns: float) -> float:
        """Average fraction of all FSMs busy over ``horizon_ns``."""
        if horizon_ns <= 0:
            return 0.0
        return min(1.0, self.total_busy_time / (horizon_ns * self.num_fsms))

    @property
    def total_busy_time(self) -> float:
        """Summed occupancy of every FSM, in ns."""
        return sum(pool.busy_time for pool in self._pools())

    def reset(self) -> None:
        for pool in self._pools():
            pool.reset()
