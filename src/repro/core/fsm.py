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
        self._slots = SlotResource("ace-fsms", num_fsms)
        self._per_phase_slots: Dict[str, SlotResource] = {}

    # ------------------------------------------------------------------
    # Programming
    # ------------------------------------------------------------------
    def program(self, phase_names: List[str]) -> Dict[str, List[int]]:
        """Assign FSMs to phases round-robin (every phase gets at least one).

        When the pool has at least as many FSMs as phases, each phase receives
        a dedicated group of FSMs (Section IV-F).  Smaller pools — explored in
        the Fig. 9a design-space sweep — time-share every FSM across all
        phases, which the model represents by having all phases draw from the
        shared global slot pool.
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
                phase: SlotResource(f"fsm[{phase}]", len(fsms))
                for phase, fsms in assignment.items()
            }
        else:
            all_fsms = list(range(self.num_fsms))
            assignment = {name: list(all_fsms) for name in unique_names}
            shared = SlotResource("fsm[shared]", self.num_fsms)
            per_phase = {name: shared for name in unique_names}
        self._assignment = assignment
        self._per_phase_slots = per_phase
        return dict(assignment)

    @property
    def programmed(self) -> bool:
        return bool(self._assignment)

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------
    def acquire(self, phase: str, earliest_start: float, duration: float) -> Tuple[int, float, float]:
        """Occupy one FSM programmed for ``phase`` for ``duration`` ns."""
        if phase not in self._per_phase_slots:
            raise SchedulingError(f"no FSM programmed for phase {phase!r}")
        slot, start, finish = self._per_phase_slots[phase].acquire(earliest_start, duration)
        # Mirror the acquisition on the global pool for aggregate utilization.
        self._slots.acquire(start, duration)
        return self._assignment[phase][slot], start, finish

    def utilization(self, horizon_ns: float) -> float:
        """Average fraction of all FSMs busy over ``horizon_ns``."""
        return self._slots.utilization(horizon_ns)

    @property
    def total_busy_time(self) -> float:
        return self._slots.busy_time

    def reset(self) -> None:
        self._slots.reset()
        for slots in self._per_phase_slots.values():
            slots.reset()
