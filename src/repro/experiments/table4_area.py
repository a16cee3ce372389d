"""Table IV — ACE synthesis area and power.

Rolls up the per-component area/power model (calibrated to the paper's 28 nm
synthesis results) for the shipped ACE configuration and checks the "<2 % of a
high-end training accelerator" overhead claim.  The roll-up runs as an
``area_power`` job so its rows land in the shared result cache like every
other experiment cell.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config.system import AceConfig
from repro.runner import SweepRunner, area_power_job, default_runner


def run_table4(
    config: AceConfig = None, runner: Optional[SweepRunner] = None
) -> List[Dict[str, object]]:
    """Return the Table IV rows plus the overhead-vs-accelerator summary."""
    runner = runner or default_runner()
    return runner.run_one(area_power_job(config))
