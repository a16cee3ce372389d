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
    """Pool of programmable FSMs: one slot pool per programmed phase."""

    def __init__(self, num_fsms: int) -> None:
        if num_fsms <= 0:
            raise ResourceError(f"need at least one FSM, got {num_fsms}")
        self.num_fsms = num_fsms
        self._per_phase: Dict[str, SlotResource] = {}

    def program(self, phase_names: List[str]) -> Dict[str, SlotResource]:
        """Assign FSMs to phases round-robin (every phase gets at least one).

        When the pool has at least as many FSMs as phases, each phase receives
        a dedicated group of FSMs (Section IV-F).  Smaller pools — explored in
        the Fig. 9a design-space sweep — time-share every FSM across all
        phases, which the model represents by having all phases draw from one
        shared slot pool.  Returns the slot pool of each phase.
        """
        if not phase_names:
            raise SchedulingError("cannot program an FSM pool with zero phases")
        unique_names = list(dict.fromkeys(phase_names))
        if len(unique_names) <= self.num_fsms:
            counts = dict.fromkeys(unique_names, 0)
            for fsm_id in range(self.num_fsms):
                counts[unique_names[fsm_id % len(unique_names)]] += 1
            self._per_phase = {
                phase: SlotResource(f"fsm[{phase}]", count) for phase, count in counts.items()
            }
        else:
            shared = SlotResource("fsm[shared]", self.num_fsms)
            self._per_phase = dict.fromkeys(unique_names, shared)
        return dict(self._per_phase)

    def acquire(self, phase: str, earliest_start: float, duration: float) -> Tuple[int, float, float]:
        """Occupy one FSM programmed for ``phase`` for ``duration`` ns.

        Returns the phase pool's ``(slot, start, finish)``.
        """
        try:
            pool = self._per_phase[phase]
        except KeyError:
            raise SchedulingError(f"no FSM programmed for phase {phase!r}") from None
        return pool.acquire(earliest_start, duration)
