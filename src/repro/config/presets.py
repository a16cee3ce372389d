"""The five system configurations of Table VI, one row each.

The paper evaluates five systems on the same hardware (Table V).  They differ
in what each takes from the NPU for communication:

* **BaselineNoOverlap** — all resources go to compute; all collectives are
  issued in one blocking batch at the end of back-propagation, and while they
  run they get the CommOpt allocation.
* **BaselineCommOpt** — 6 SMs and 450 GB/s of memory bandwidth are reserved
  for communication, which is enough to reach 90 % of the ideal network drive
  (Figs. 5 and 6).
* **BaselineCompOpt** — only 128 GB/s of memory bandwidth (and 2 SMs) are
  reserved for communication so the training computation runs faster, at the
  cost of slower collectives.
* **ACE** — the proposed collectives engine; no NPU SMs are used for
  communication and only its 128 GB/s DMA slice
  (``AceConfig.memory_bandwidth_gbps``) is drawn from HBM.
* **Ideal** — endpoint processing is free; an upper bound.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from repro.config.system import (
    AceConfig,
    ComputeConfig,
    EndpointKind,
    MemoryConfig,
    NetworkConfig,
    ResourcePolicy,
    SystemConfig,
)
from repro.errors import ConfigurationError

#: Torus shapes used in the paper's scaling study (Fig. 11), keyed by NPU count.
_TORUS_SHAPES: Dict[int, Tuple[int, int, int]] = {
    8: (4, 2, 1),
    16: (4, 2, 2),
    32: (4, 4, 2),
    64: (4, 4, 4),
    128: (4, 8, 4),
    256: (4, 8, 8),
}

#: Launch/scheduling overhead per collective on the baseline (a NCCL-class
#: kernel launch plus CUDA scheduling on a busy GPU, Section III) and on ACE
#: (the NPU-AFI command interface plus the completion interrupt, Section IV-G).
BASELINE_LAUNCH_OVERHEAD_NS = 10_000.0
ACE_LAUNCH_OVERHEAD_NS = 1_500.0


class _System(NamedTuple):
    """One Table VI row: what the system takes from the NPU for communication."""

    label: str
    endpoint: EndpointKind
    comm_sms: int
    comm_memory_bandwidth_gbps: float
    launch_overhead_ns: float


#: The Table VI systems, keyed by the one name jobs and manifests spell.
_SYSTEMS: Dict[str, _System] = {
    "baseline_no_overlap": _System(
        "BaselineNoOverlap", EndpointKind.BASELINE_NO_OVERLAP, 6, 450.0,
        BASELINE_LAUNCH_OVERHEAD_NS,
    ),
    "baseline_comm_opt": _System(
        "BaselineCommOpt", EndpointKind.BASELINE_COMM_OPT, 6, 450.0,
        BASELINE_LAUNCH_OVERHEAD_NS,
    ),
    "baseline_comp_opt": _System(
        "BaselineCompOpt", EndpointKind.BASELINE_COMP_OPT, 2, 128.0,
        BASELINE_LAUNCH_OVERHEAD_NS,
    ),
    "ace": _System("ACE", EndpointKind.ACE, 0, 0.0, ACE_LAUNCH_OVERHEAD_NS),
    "ideal": _System("Ideal", EndpointKind.IDEAL, 0, 0.0, 0.0),
}

SYSTEM_CONFIG_NAMES = tuple(_SYSTEMS)


def torus_shape_for_npus(num_npus: int) -> Tuple[int, int, int]:
    """Return the LxVxH torus shape the paper uses for ``num_npus`` NPUs."""
    try:
        return _TORUS_SHAPES[num_npus]
    except KeyError:
        raise ConfigurationError(
            f"no canonical torus shape for {num_npus} NPUs; "
            f"known sizes: {sorted(_TORUS_SHAPES)}"
        ) from None


def make_system(
    name: str,
    *,
    compute: ComputeConfig = ComputeConfig(),
    memory: MemoryConfig = MemoryConfig(),
    network: NetworkConfig = NetworkConfig(),
    ace: AceConfig = AceConfig(),
) -> SystemConfig:
    """Build one of the Table VI configurations by its exact name.

    ``name`` is one of :data:`SYSTEM_CONFIG_NAMES` (``baseline_comm_opt``,
    ``ace``, ...).  The keywords replace whole configuration sections (the
    defaults are frozen, so every preset may share them).  Set a top-level
    field such as ``network_backend`` on the result:
    ``make_system("ace").with_overrides(network_backend="detailed")``.
    """
    if name not in _SYSTEMS:
        raise ConfigurationError(
            f"unknown system configuration {name!r}; "
            f"expected one of {list(SYSTEM_CONFIG_NAMES)}"
        )
    row = _SYSTEMS[name]
    return SystemConfig(
        name=row.label,
        endpoint=row.endpoint,
        compute=compute,
        memory=memory,
        network=network,
        ace=ace,
        policy=ResourcePolicy(row.comm_sms, row.comm_memory_bandwidth_gbps),
        collective_launch_overhead_ns=row.launch_overhead_ns,
    )
