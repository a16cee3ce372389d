"""Factory functions for the five system configurations of Table VI.

The paper evaluates five systems on the same hardware (Table V):

* **BaselineNoOverlap** — all resources go to compute; all collectives are
  issued in one blocking batch at the end of back-propagation.
* **BaselineCommOpt** — 6 SMs and 450 GB/s of memory bandwidth are reserved
  for communication, which is enough to reach 90 % of the ideal network drive
  (Figs. 5 and 6).
* **BaselineCompOpt** — only 128 GB/s of memory bandwidth (and 2 SMs) are
  reserved for communication so the training computation runs faster, at the
  cost of slower collectives.
* **ACE** — the proposed collectives engine; no NPU SMs are used for
  communication and only 128 GB/s of DMA bandwidth is drawn from HBM.
* **Ideal** — endpoint processing is free; an upper bound.
"""

from __future__ import annotations

from typing import Dict, Tuple

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

SYSTEM_CONFIG_NAMES = (
    "baseline_no_overlap",
    "baseline_comm_opt",
    "baseline_comp_opt",
    "ace",
    "ideal",
)

#: Launch/scheduling overhead per collective on the baseline (a NCCL-class
#: kernel launch plus CUDA scheduling on a busy GPU, Section III) and on ACE
#: (the NPU-AFI command interface plus the completion interrupt, Section IV-G).
BASELINE_LAUNCH_OVERHEAD_NS = 10_000.0
ACE_LAUNCH_OVERHEAD_NS = 1_500.0


def torus_shape_for_npus(num_npus: int) -> Tuple[int, int, int]:
    """Return the LxVxH torus shape the paper uses for ``num_npus`` NPUs."""
    try:
        return _TORUS_SHAPES[num_npus]
    except KeyError:
        raise ConfigurationError(
            f"no canonical torus shape for {num_npus} NPUs; "
            f"known sizes: {sorted(_TORUS_SHAPES)}"
        ) from None


def _base_kwargs(
    compute: ComputeConfig = None,
    memory: MemoryConfig = None,
    network: NetworkConfig = None,
    ace: AceConfig = None,
) -> Dict[str, object]:
    return {
        "compute": compute or ComputeConfig(),
        "memory": memory or MemoryConfig(),
        "network": network or NetworkConfig(),
        "ace": ace or AceConfig(),
    }


def baseline_no_overlap(**overrides) -> SystemConfig:
    """Table VI BaselineNoOverlap: no compute/communication overlap.

    All collectives are issued in a single blocking phase at the end of
    back-propagation, so both compute and communication see the full NPU
    (communication gets the CommOpt resource allocation while it runs, but
    compute never shares with it).
    """
    kwargs = _base_kwargs(**overrides)
    return SystemConfig(
        name="BaselineNoOverlap",
        endpoint=EndpointKind.BASELINE_NO_OVERLAP,
        policy=ResourcePolicy(
            comm_sms=6,
            comm_memory_bandwidth_gbps=450.0,
            comm_uses_npu_sms=True,
            comm_uses_memory=True,
        ),
        collective_launch_overhead_ns=BASELINE_LAUNCH_OVERHEAD_NS,
        **kwargs,
    )


def baseline_comm_opt(**overrides) -> SystemConfig:
    """Table VI BaselineCommOpt: 6 SMs + 450 GB/s memory BW for communication."""
    kwargs = _base_kwargs(**overrides)
    return SystemConfig(
        name="BaselineCommOpt",
        endpoint=EndpointKind.BASELINE_COMM_OPT,
        policy=ResourcePolicy(
            comm_sms=6,
            comm_memory_bandwidth_gbps=450.0,
            comm_uses_npu_sms=True,
            comm_uses_memory=True,
        ),
        collective_launch_overhead_ns=BASELINE_LAUNCH_OVERHEAD_NS,
        **kwargs,
    )


def baseline_comp_opt(**overrides) -> SystemConfig:
    """Table VI BaselineCompOpt: 2 SMs + 128 GB/s memory BW for communication."""
    kwargs = _base_kwargs(**overrides)
    return SystemConfig(
        name="BaselineCompOpt",
        endpoint=EndpointKind.BASELINE_COMP_OPT,
        policy=ResourcePolicy(
            comm_sms=2,
            comm_memory_bandwidth_gbps=128.0,
            comm_uses_npu_sms=True,
            comm_uses_memory=True,
        ),
        collective_launch_overhead_ns=BASELINE_LAUNCH_OVERHEAD_NS,
        **kwargs,
    )


def ace_system(**overrides) -> SystemConfig:
    """Table VI ACE: collectives run on the endpoint engine, NPU untouched."""
    kwargs = _base_kwargs(**overrides)
    return SystemConfig(
        name="ACE",
        endpoint=EndpointKind.ACE,
        policy=ResourcePolicy(
            comm_sms=0,
            comm_memory_bandwidth_gbps=kwargs["ace"].memory_bandwidth_gbps,
            comm_uses_npu_sms=False,
            comm_uses_memory=True,
        ),
        collective_launch_overhead_ns=ACE_LAUNCH_OVERHEAD_NS,
        **kwargs,
    )


def ideal_system(**overrides) -> SystemConfig:
    """Table VI Ideal: endpoint processing is free (1-cycle), upper bound."""
    kwargs = _base_kwargs(**overrides)
    return SystemConfig(
        name="Ideal",
        endpoint=EndpointKind.IDEAL,
        policy=ResourcePolicy(
            comm_sms=0,
            comm_memory_bandwidth_gbps=0.0,
            comm_uses_npu_sms=False,
            comm_uses_memory=False,
        ),
        **kwargs,
    )


_FACTORIES = {
    "baseline_no_overlap": baseline_no_overlap,
    "baseline_comm_opt": baseline_comm_opt,
    "baseline_comp_opt": baseline_comp_opt,
    "ace": ace_system,
    "ideal": ideal_system,
}


def make_system(name: str, **sections) -> SystemConfig:
    """Build one of the Table VI configurations by name.

    ``name`` accepts the canonical snake_case identifiers
    (``baseline_comm_opt``, ``ace``, ...) as well as the paper's CamelCase
    labels (``BaselineCommOpt``, ``ACE``, ``Ideal``).  ``sections`` replace
    whole configuration sections (``compute=ComputeConfig(...)``,
    ``memory=``, ``network=``, ``ace=``).  Set a top-level field such as
    ``network_backend`` on the result:
    ``make_system("ace").with_overrides(network_backend="detailed")``.
    """
    key = name.strip()
    normalized = {
        "baselinenooverlap": "baseline_no_overlap",
        "baselinecommopt": "baseline_comm_opt",
        "baselinecompopt": "baseline_comp_opt",
        "ace": "ace",
        "ideal": "ideal",
    }.get(key.replace("_", "").lower(), key.lower())
    try:
        factory = _FACTORIES[normalized]
    except KeyError:
        raise ConfigurationError(
            f"unknown system configuration {name!r}; "
            f"expected one of {sorted(_FACTORIES)}"
        ) from None
    return factory(**sections)
