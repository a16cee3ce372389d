"""ACE — the Accelerator Collectives Engine (the paper's core contribution).

The engine's timing — TX/RX DMAs, HBM slice and FSM pool (Section IV) — is
booked by :class:`repro.endpoint.ace.AceEndpoint`.  This package holds the
models around it:

* :mod:`repro.core.area_power` — the 28 nm area/power model of Table IV.
* :mod:`repro.core.dse` — the SRAM/FSM design-space exploration of Fig. 9a
  (imported lazily by the experiments to avoid heavy imports here).
"""

from repro.core.area_power import AceAreaPowerModel, ComponentEstimate

__all__ = [
    "AceAreaPowerModel",
    "ComponentEstimate",
]
