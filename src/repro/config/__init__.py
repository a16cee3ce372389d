"""System and platform configuration.

The classes here encode the parameters of Table V (hardware parameters) and
Table VI (the five evaluated system configurations) of the paper.  Every
simulator component is constructed from a :class:`~repro.config.system.SystemConfig`,
so an experiment is fully described by (system config, workload, NPU count).
"""

from repro.config.system import (
    AceConfig,
    ComputeConfig,
    EndpointKind,
    MemoryConfig,
    NetworkConfig,
    ResourcePolicy,
    SystemConfig,
)
from repro.config.presets import (
    SYSTEM_CONFIG_NAMES,
    make_system,
    torus_shape_for_npus,
)

__all__ = [
    "AceConfig",
    "ComputeConfig",
    "EndpointKind",
    "MemoryConfig",
    "NetworkConfig",
    "ResourcePolicy",
    "SystemConfig",
    "SYSTEM_CONFIG_NAMES",
    "make_system",
    "torus_shape_for_npus",
]
