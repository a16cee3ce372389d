"""ACE design-space exploration (Fig. 9a).

Sweeps the SRAM capacity and FSM count of the ACE configuration, drives a
large all-reduce through each design point, and reports its performance
normalised to the paper's selected design (4 MB SRAM, 16 FSMs).  Smaller
SRAMs admit fewer chunks concurrently and fewer FSMs process fewer
chunk-phases in parallel, so both starve the network pipeline; beyond the
selected point the returns diminish because the inter-package links are
already saturated.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.config.system import AceConfig
from repro.errors import ConfigurationError
from repro.units import MB

DesignPoint = Tuple[float, int]


def ace_config_for(sram_mb: float, num_fsms: int) -> AceConfig:
    """An :class:`AceConfig` with the given SRAM capacity and FSM count."""
    if sram_mb <= 0 or num_fsms <= 0:
        raise ConfigurationError("SRAM size and FSM count must be positive")
    return AceConfig(sram_bytes=int(sram_mb * MB), num_fsms=num_fsms)


def sweep_design_space(
    design_points: Sequence[DesignPoint],
    sizes: Sequence[int] = (16, 64),
    reference: DesignPoint = (4, 16),
    payload_bytes: int = 64 * MB,
    runner=None,
) -> List[Dict[str, object]]:
    """Evaluate every design point and normalise performance to ``reference``.

    Performance is measured as the time ACE needs to complete a large
    (``payload_bytes``, 64 MB by default) all-reduce — the quantity the SRAM
    capacity (number of in-flight chunks) and the FSM count (number of
    chunk-phases processed in parallel) directly govern — geometrically
    averaged across platform sizes, and normalised to the paper's selected
    design point, which is swept too if ``design_points`` leaves it out.
    The (design point x size) grid runs as one batch through ``runner``.
    """
    from repro.runner import default_runner, network_drive_job
    from repro.units import KB

    runner = runner or default_runner()
    points = list(dict.fromkeys([tuple(p) for p in design_points] + [tuple(reference)]))
    chunk = 64 * KB
    for sram_mb, num_fsms in points:
        ace_config_for(sram_mb, num_fsms)  # eager validation of the sweep points
    jobs = [
        network_drive_job(
            "ace",
            payload_bytes,
            num_npus=num_npus,
            chunk_bytes=chunk,
            overrides={
                "ace": {"sram_bytes": int(sram_mb * MB), "num_fsms": int(num_fsms)}
            },
        )
        for sram_mb, num_fsms in points
        for num_npus in sizes
    ]
    drives = iter(runner.run_values(jobs))
    mean_drive_time: Dict[DesignPoint, float] = {}
    for sram_mb, num_fsms in points:
        product = 1.0
        count = 0
        for _ in sizes:
            product *= next(drives).duration_ns
            count += 1
        mean_drive_time[(sram_mb, num_fsms)] = product ** (1.0 / count)

    reference_time = mean_drive_time[tuple(reference)]
    rows: List[Dict[str, object]] = []
    for (sram_mb, num_fsms), drive_time in mean_drive_time.items():
        rows.append(
            {
                "sram_mb": sram_mb,
                "num_fsms": num_fsms,
                "mean_collective_time_us": drive_time / 1e3,
                "performance_vs_reference": reference_time / drive_time,
            }
        )
    rows.sort(key=lambda r: (r["sram_mb"], r["num_fsms"]))
    return rows
