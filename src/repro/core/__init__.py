"""ACE — the Accelerator Collectives Engine (the paper's core contribution).

This package models the micro-architecture of Section IV:

* :mod:`repro.core.fsm` — the programmable finite-state-machine pool that
  schedules chunks through collective phases (Section IV-F).
* :mod:`repro.core.engine` — the assembled engine with TX/RX DMAs, used by
  :class:`repro.endpoint.ace.AceEndpoint`.  The SRAM and reduction-ALU
  streams (Section IV-I) are timed inside the FSM occupancy; the SRAM
  capacity bounds the in-flight chunks through
  ``AceConfig.max_inflight_chunks``.
* :mod:`repro.core.area_power` — the 28 nm area/power model of Table IV.
* :mod:`repro.core.dse` — the SRAM/FSM design-space exploration of Fig. 9a
  (imported lazily by the experiments to avoid heavy imports here).
"""

from repro.core.area_power import AceAreaPowerModel, ComponentEstimate
from repro.core.engine import AceEngine
from repro.core.fsm import FsmPool

__all__ = [
    "AceAreaPowerModel",
    "ComponentEstimate",
    "AceEngine",
    "FsmPool",
]
