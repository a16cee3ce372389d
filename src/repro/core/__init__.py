"""ACE — the Accelerator Collectives Engine (the paper's core contribution).

This package models the micro-architecture of Section IV:

* :mod:`repro.core.sram` — the partitioned scratchpad and the bandwidth-
  proportional partitioning heuristic (Section IV-I).
* :mod:`repro.core.fsm` — the programmable finite-state-machine pool that
  schedules chunks through collective phases (Section IV-F).
* :mod:`repro.core.alu` — the reduction ALUs (Section IV-I).
* :mod:`repro.core.engine` — the assembled engine with TX/RX DMAs, used by
  :class:`repro.endpoint.ace.AceEndpoint`.
* :mod:`repro.core.area_power` — the 28 nm area/power model of Table IV.
* :mod:`repro.core.dse` — the SRAM/FSM design-space exploration of Fig. 9a
  (imported lazily by the experiments to avoid heavy imports here).
"""

from repro.core.alu import AluArray
from repro.core.area_power import AceAreaPowerModel, ComponentEstimate
from repro.core.engine import AceEngine
from repro.core.fsm import FsmPool
from repro.core.sram import SramPartition, SramScratchpad, partition_sram

__all__ = [
    "AluArray",
    "AceAreaPowerModel",
    "ComponentEstimate",
    "AceEngine",
    "FsmPool",
    "SramPartition",
    "SramScratchpad",
    "partition_sram",
]
