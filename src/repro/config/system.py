"""Configuration dataclasses for the simulated training platform.

The default values mirror Table V of the paper:

* GPU-like NPU: 80 SMs, 120 TFLOPs FP16 peak, 1245 MHz.
* 900 GB/s NPU-memory bandwidth, 500 GB/s NPU-AFI bus bandwidth.
* Links: 200 GB/s intra-package (2 links -> 400 GB/s local ring),
  25 GB/s inter-package (2 links per direction ring -> 50 GB/s vertical and
  50 GB/s horizontal rings), 90 / 500 cycles link latency, 94 % efficiency.
* ACE: 4 MB SRAM, 16 FSMs, 4 wide ALUs, 8 KB messages, 256 B packets,
  64 KB initial chunks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.units import KB, MB, cycles_to_ns


class EndpointKind(str, enum.Enum):
    """Which endpoint model drives the accelerator fabric.

    Matches Table VI of the paper: three baseline flavours, ACE, and the
    ideal (zero endpoint cost) system.
    """

    BASELINE_NO_OVERLAP = "baseline_no_overlap"
    BASELINE_COMM_OPT = "baseline_comm_opt"
    BASELINE_COMP_OPT = "baseline_comp_opt"
    ACE = "ace"
    IDEAL = "ideal"

    @property
    def is_baseline(self) -> bool:
        return self in (
            EndpointKind.BASELINE_NO_OVERLAP,
            EndpointKind.BASELINE_COMM_OPT,
            EndpointKind.BASELINE_COMP_OPT,
        )

    @property
    def overlaps_communication(self) -> bool:
        """Whether communication may overlap with compute in the training loop."""
        return self is not EndpointKind.BASELINE_NO_OVERLAP


@dataclass(frozen=True)
class ComputeConfig:
    """GPU-like NPU compute engine parameters.

    The first block parameterises the NPU at the roofline level (SM count,
    peak rate, frequency).  The second block describes the execution-unit
    structure underneath — the Scalar/Matrix/Vector/DMA split, SRAM and
    register-file capacities, and occupancy/overlap derates — consumed only
    by the ``"execution-unit"`` compute backend
    (:class:`~repro.compute.execution_unit.ExecutionUnitModel`); the default
    ``"roofline"`` backend ignores it, so these fields never perturb golden
    values.
    """

    num_sms: int = 80
    peak_tflops_fp16: float = 120.0
    frequency_mhz: float = 1245.0
    #: Per-SM read/write width used to derive the memory bandwidth one SM can
    #: drive for communication (64 bytes/cycle at 1245 MHz ~= 80 GB/s, Sec. III).
    sm_bytes_per_cycle: float = 64.0
    #: Fraction of peak FLOPs delivered by the matrix (systolic/tensor) units.
    matrix_unit_fraction: float = 0.98
    #: Fraction of peak FLOPs the SIMD vector lanes can sustain.
    vector_unit_fraction: float = 0.125
    #: Fraction of peak FLOPs the scalar/control pipeline can sustain.
    scalar_unit_fraction: float = 0.002
    #: Fraction of a kernel's FLOPs replayed on the scalar unit as address
    #: generation and control flow.
    scalar_flops_fraction: float = 1e-5
    #: Streaming-FLOP density: at most this many of a kernel's FLOPs per DMA
    #: byte run on the vector unit (epilogues, reductions); the rest are
    #: matrix work.
    vector_flops_per_byte: float = 2.0
    #: Achieved wave occupancy of the matrix/vector units.
    unit_occupancy: float = 0.985
    #: Fraction of a kernel's DMA stream hidden under unit execution
    #: (double-buffering efficiency); the remainder is exposed serially.
    dma_overlap: float = 0.97
    #: Per-core-complex SRAM scratchpad staging DMA tiles (fill/drain bound).
    unit_sram_bytes: int = 192 * KB
    #: Register-file capacity; kernels whose traffic fits bypass SRAM staging.
    register_file_bytes: int = 64 * KB

    def __post_init__(self) -> None:
        if self.num_sms <= 0:
            raise ConfigurationError(f"num_sms must be positive, got {self.num_sms}")
        if self.peak_tflops_fp16 <= 0:
            raise ConfigurationError("peak_tflops_fp16 must be positive")
        if self.frequency_mhz <= 0:
            raise ConfigurationError("frequency_mhz must be positive")
        for fraction_field in (
            "matrix_unit_fraction",
            "vector_unit_fraction",
            "scalar_unit_fraction",
            "unit_occupancy",
        ):
            value = getattr(self, fraction_field)
            if not 0 < value <= 1:
                raise ConfigurationError(
                    f"{fraction_field} must be in (0, 1], got {value}"
                )
        for unit_interval_field in ("scalar_flops_fraction", "dma_overlap"):
            value = getattr(self, unit_interval_field)
            if not 0 <= value <= 1:
                raise ConfigurationError(
                    f"{unit_interval_field} must be in [0, 1], got {value}"
                )
        if self.vector_flops_per_byte <= 0:
            raise ConfigurationError(
                f"vector_flops_per_byte must be positive, got "
                f"{self.vector_flops_per_byte}"
            )
        if self.unit_sram_bytes <= 0:
            raise ConfigurationError(
                f"unit_sram_bytes must be positive, got {self.unit_sram_bytes}"
            )
        if self.register_file_bytes <= 0:
            raise ConfigurationError(
                f"register_file_bytes must be positive, got {self.register_file_bytes}"
            )

    @property
    def sm_memory_bandwidth_gbps(self) -> float:
        """Memory bandwidth a single SM can drive for communication (GB/s)."""
        return self.sm_bytes_per_cycle * self.frequency_mhz / 1e3

    @property
    def tflops_per_sm(self) -> float:
        return self.peak_tflops_fp16 / self.num_sms


@dataclass(frozen=True)
class MemoryConfig:
    """HBM and NPU-AFI bus parameters."""

    npu_memory_bandwidth_gbps: float = 900.0
    npu_afi_bus_bandwidth_gbps: float = 500.0
    #: Fixed per-transaction overhead on the NPU-AFI bus and memory channel,
    #: modelling transaction scheduling / queuing setup (Section V).
    transaction_overhead_ns: float = 20.0

    def __post_init__(self) -> None:
        if self.npu_memory_bandwidth_gbps <= 0:
            raise ConfigurationError("npu_memory_bandwidth_gbps must be positive")
        if self.npu_afi_bus_bandwidth_gbps <= 0:
            raise ConfigurationError("npu_afi_bus_bandwidth_gbps must be positive")
        if self.transaction_overhead_ns < 0:
            raise ConfigurationError("transaction_overhead_ns must be non-negative")


#: Canonical mapping of fabric dimensions to their physical link class.
#: Torus dimensions follow Table V (``local`` rides the silicon interposer,
#: ``vertical``/``horizontal`` the inter-package links); the non-torus fabrics
#: reuse the same classes — a ``switch`` port is provisioned like the
#: intra-package links (an NVSwitch-class group) while ``direct``
#: (fully-connected) point-to-point links are inter-package class.  This is
#: the single source of truth consulted by both the symmetric fabric
#: (:meth:`NetworkConfig.dimension_bandwidth_gbps`) and the per-link model
#: (:meth:`repro.network.links.LinkKind.for_dimension`).
DIMENSION_LINK_CLASS: Dict[str, str] = {
    "local": "intra_package",
    "switch": "intra_package",
    "vertical": "inter_package",
    "horizontal": "inter_package",
    "direct": "inter_package",
}


@dataclass(frozen=True)
class NetworkConfig:
    """Accelerator-fabric link parameters (per NPU) for the 3D torus.

    The topology notation follows the paper: ``LxVxH`` where L NPUs share a
    package (local intra-package ring) and packages form a VxH 2D torus
    (vertical and horizontal inter-package rings).
    """

    intra_package_link_bandwidth_gbps: float = 200.0
    inter_package_link_bandwidth_gbps: float = 25.0
    intra_package_links: int = 2
    inter_package_links_per_dim: int = 2
    intra_package_latency_cycles: float = 90.0
    inter_package_latency_cycles: float = 500.0
    link_efficiency: float = 0.94
    frequency_mhz: float = 1245.0
    packet_size_bytes: int = 256

    def __post_init__(self) -> None:
        if not 0 < self.link_efficiency <= 1:
            raise ConfigurationError("link_efficiency must be in (0, 1]")
        if self.intra_package_link_bandwidth_gbps <= 0:
            raise ConfigurationError("intra-package link bandwidth must be positive")
        if self.inter_package_link_bandwidth_gbps <= 0:
            raise ConfigurationError("inter-package link bandwidth must be positive")
        if self.packet_size_bytes <= 0:
            raise ConfigurationError("packet size must be positive")

    # ------------------------------------------------------------------
    # Derived per-dimension ring bandwidths (Table V "Total BW")
    # ------------------------------------------------------------------
    @property
    def local_ring_bandwidth_gbps(self) -> float:
        """Effective intra-package ring bandwidth per NPU (400 GB/s in Table V)."""
        return (
            self.intra_package_link_bandwidth_gbps
            * self.intra_package_links
            * self.link_efficiency
        )

    @property
    def vertical_ring_bandwidth_gbps(self) -> float:
        """Effective vertical inter-package ring bandwidth per NPU (50 GB/s)."""
        return (
            self.inter_package_link_bandwidth_gbps
            * self.inter_package_links_per_dim
            * self.link_efficiency
        )

    @property
    def horizontal_ring_bandwidth_gbps(self) -> float:
        """Effective horizontal inter-package ring bandwidth per NPU (50 GB/s)."""
        return self.vertical_ring_bandwidth_gbps

    @property
    def total_injection_bandwidth_gbps(self) -> float:
        """Sum of all per-NPU ring bandwidths (upper bound on network drive)."""
        return (
            self.local_ring_bandwidth_gbps
            + self.vertical_ring_bandwidth_gbps
            + self.horizontal_ring_bandwidth_gbps
        )

    @property
    def intra_package_latency_ns(self) -> float:
        return cycles_to_ns(self.intra_package_latency_cycles, self.frequency_mhz)

    @property
    def inter_package_latency_ns(self) -> float:
        return cycles_to_ns(self.inter_package_latency_cycles, self.frequency_mhz)

    @staticmethod
    def _link_class(dim: str) -> str:
        try:
            return DIMENSION_LINK_CLASS[dim]
        except KeyError:
            raise ConfigurationError(f"unknown fabric dimension {dim!r}") from None

    def dimension_bandwidth_gbps(self, dim: str) -> float:
        """Per-NPU bandwidth of a fabric dimension.

        The dimension's physical link class comes from the shared
        :data:`DIMENSION_LINK_CLASS` table (Table V provisioning for the
        torus; switch = intra-package class, direct = inter-package class).
        """
        if self._link_class(dim) == "intra_package":
            return self.local_ring_bandwidth_gbps
        return self.vertical_ring_bandwidth_gbps

    def dimension_latency_ns(self, dim: str) -> float:
        """Per-hop link latency of a fabric dimension (classes per
        :data:`DIMENSION_LINK_CLASS`)."""
        if self._link_class(dim) == "intra_package":
            return self.intra_package_latency_ns
        return self.inter_package_latency_ns


@dataclass(frozen=True)
class AceConfig:
    """Accelerator Collectives Engine micro-architecture parameters (Section IV)."""

    sram_bytes: int = 4 * MB
    num_fsms: int = 16
    num_alus: int = 4
    #: Each ALU performs 16 x FP32 (or 32 x FP16) operations per cycle on a
    #: 64-byte operand bus (Section IV-I).
    alu_bytes_per_cycle: float = 64.0
    frequency_mhz: float = 1245.0
    chunk_bytes: int = 64 * KB
    message_bytes: int = 8 * KB
    packet_bytes: int = 256
    #: SRAM macro read+write bandwidth available to the datapath, per bank.
    sram_banks: int = 4
    sram_bank_bandwidth_gbps: float = 160.0
    #: DMA engines moving payloads between main memory and the ACE SRAM.
    tx_dma_bandwidth_gbps: float = 500.0
    rx_dma_bandwidth_gbps: float = 500.0
    #: Memory bandwidth carved out of HBM for ACE DMA traffic (128 GB/s is the
    #: operating point the paper identifies in Fig. 5).
    memory_bandwidth_gbps: float = 128.0

    def __post_init__(self) -> None:
        if self.sram_bytes <= 0:
            raise ConfigurationError("sram_bytes must be positive")
        if self.num_fsms <= 0:
            raise ConfigurationError("num_fsms must be positive")
        if self.num_alus <= 0:
            raise ConfigurationError("num_alus must be positive")
        if self.chunk_bytes <= 0 or self.message_bytes <= 0 or self.packet_bytes <= 0:
            raise ConfigurationError("chunk/message/packet sizes must be positive")
        if self.message_bytes > self.chunk_bytes:
            raise ConfigurationError("message size cannot exceed chunk size")
        if self.packet_bytes > self.message_bytes:
            raise ConfigurationError("packet size cannot exceed message size")

    @property
    def alu_throughput_gbps(self) -> float:
        """Aggregate ALU streaming throughput (GB/s of reduced operand data)."""
        return self.num_alus * self.alu_bytes_per_cycle * self.frequency_mhz / 1e3

    @property
    def sram_bandwidth_gbps(self) -> float:
        """Aggregate SRAM bandwidth across banks (GB/s)."""
        return self.sram_banks * self.sram_bank_bandwidth_gbps

    @property
    def max_inflight_chunks(self) -> int:
        """How many chunks fit in SRAM simultaneously (capacity bound)."""
        return max(1, self.sram_bytes // self.chunk_bytes)


@dataclass(frozen=True)
class ResourcePolicy:
    """How a system configuration splits NPU resources between compute and comms.

    These splits implement Table VI: e.g. BaselineCommOpt dedicates 6 SMs and
    450 GB/s of memory bandwidth to communication; BaselineCompOpt and ACE
    leave 128 GB/s for communication traffic; the ideal system charges nothing.
    """

    comm_sms: int = 0
    comm_memory_bandwidth_gbps: float = 0.0
    #: Whether collective processing consumes NPU SMs at all (False for ACE/Ideal).
    comm_uses_npu_sms: bool = True
    #: Whether collective traffic touches main memory per step (False for Ideal).
    comm_uses_memory: bool = True

    def __post_init__(self) -> None:
        if self.comm_sms < 0:
            raise ConfigurationError("comm_sms must be non-negative")
        if self.comm_memory_bandwidth_gbps < 0:
            raise ConfigurationError("comm_memory_bandwidth_gbps must be non-negative")


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one simulated platform configuration."""

    name: str
    endpoint: EndpointKind
    compute: ComputeConfig = field(default_factory=ComputeConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    ace: AceConfig = field(default_factory=AceConfig)
    policy: ResourcePolicy = field(default_factory=ResourcePolicy)
    #: Scheduling policy for pending collectives: "lifo" (paper default) or "fifo".
    collective_scheduling: str = "lifo"
    #: Collective algorithm the planner should use: "auto" (cheapest feasible
    #: plan for the topology — the paper's hierarchical/direct choices on the
    #: torus) or an explicit registered name ("hierarchical", "ring", "tree",
    #: "halving_doubling", "direct").  An explicit name applies to the
    #: operations that algorithm implements; a workload's other collectives
    #: (e.g. DLRM's all-to-all under a pinned all-reduce algorithm) fall back
    #: to auto selection.  Validated against the registry when the first plan
    #: is requested.
    collective_algorithm: str = "auto"
    #: Network model executing the collective traffic: "symmetric" (the fast
    #: representative-NPU analytical model, the default and the paper's sweep
    #: vehicle), "detailed" (per-link FIFO serialization with hop-by-hop
    #: contention; small-system validation and per-link observability),
    #: "hybrid" (per-link detail on the most-contended dimension, pipes on
    #: the rest), or "auto" (detailed at or below
    #: ``network_backend_auto_threshold`` NPUs, hybrid up to the hybrid cap,
    #: symmetric above).  Validated against the backend registry when the
    #: executor builds the fabric.
    network_backend: str = "symmetric"
    #: Largest NPU count the "auto" backend still simulates with the
    #: detailed per-link model (the paper validates small, sweeps large).
    #: Raised from 32 to 64 when the detailed hot path gained coalescing and
    #: batched reservations.
    network_backend_auto_threshold: int = 64
    #: Compute model pricing training kernels: "roofline" (max of compute and
    #: memory bounds, the default and the model every golden value pins),
    #: "execution-unit" (Scalar/Matrix/Vector/DMA units with SRAM staging and
    #: occupancy/overlap derates — parameters on :class:`ComputeConfig`), or
    #: "auto" (execution-unit at or below the compute auto threshold, roofline
    #: above — validate small, sweep large, mirroring ``network_backend``).
    #: Validated against the compute-backend registry when the engine is built.
    compute_backend: str = "roofline"
    #: Fixed overhead from issuing a collective until its first chunk can be
    #: processed.  For the baselines this is the communication-kernel launch
    #: and scheduling cost on a busy GPU (Section III measures multi-us
    #: degradations from exactly this contention); for ACE it is the small
    #: NPU-to-AFI command interface cost; the ideal system pays nothing.
    collective_launch_overhead_ns: float = 0.0
    #: Parallelisation strategy override for training runs on this platform:
    #: ``None`` (each workload's native strategy, the default), or a spec
    #: string — "data" | "model" | "hybrid" | "zero" | "pipeline" |
    #: "pipeline:<stages>x<microbatches>".  ``SimJob.parallelism`` sets it.
    parallelism: Optional[str] = None

    def __post_init__(self) -> None:
        if self.collective_scheduling not in ("lifo", "fifo"):
            raise ConfigurationError(
                f"collective_scheduling must be 'lifo' or 'fifo', got "
                f"{self.collective_scheduling!r}"
            )
        if not self.collective_algorithm or not isinstance(self.collective_algorithm, str):
            raise ConfigurationError(
                f"collective_algorithm must be a non-empty algorithm name or "
                f"'auto', got {self.collective_algorithm!r}"
            )
        if not self.network_backend or not isinstance(self.network_backend, str):
            raise ConfigurationError(
                f"network_backend must be a non-empty backend name or 'auto', "
                f"got {self.network_backend!r}"
            )
        if self.network_backend_auto_threshold <= 0:
            raise ConfigurationError(
                f"network_backend_auto_threshold must be positive, got "
                f"{self.network_backend_auto_threshold}"
            )
        if not self.compute_backend or not isinstance(self.compute_backend, str):
            raise ConfigurationError(
                f"compute_backend must be a non-empty backend name or 'auto', "
                f"got {self.compute_backend!r}"
            )
        if self.policy.comm_sms > self.compute.num_sms:
            raise ConfigurationError(
                "cannot allocate more SMs to communication than the NPU has"
            )
        if (
            self.policy.comm_memory_bandwidth_gbps
            > self.memory.npu_memory_bandwidth_gbps
        ):
            raise ConfigurationError(
                "cannot allocate more memory bandwidth to communication than available"
            )
        if self.collective_launch_overhead_ns < 0:
            raise ConfigurationError("collective_launch_overhead_ns must be non-negative")
        if self.parallelism is not None:
            # Imported lazily: training.parallelism (via workloads.base)
            # imports this module.
            from repro.training.parallelism import parse_parallelism

            parse_parallelism(self.parallelism)

    # ------------------------------------------------------------------
    # Derived resource views (what the training computation gets to use)
    # ------------------------------------------------------------------
    @property
    def compute_sms(self) -> int:
        """SMs left for the training computation.

        BaselineNoOverlap time-shares the NPU: compute and communication never
        run concurrently, so the training computation sees every SM.
        """
        if not self.policy.comm_uses_npu_sms:
            return self.compute.num_sms
        if self.endpoint is EndpointKind.BASELINE_NO_OVERLAP:
            return self.compute.num_sms
        return self.compute.num_sms - self.policy.comm_sms

    @property
    def compute_tflops(self) -> float:
        """Peak TFLOPs available to the training computation."""
        return self.compute.tflops_per_sm * self.compute_sms

    @property
    def compute_memory_bandwidth_gbps(self) -> float:
        """HBM bandwidth left for the training computation.

        BaselineNoOverlap time-shares the NPU (no concurrent communication),
        so compute keeps the full HBM bandwidth.
        """
        if self.endpoint is EndpointKind.BASELINE_NO_OVERLAP:
            return self.memory.npu_memory_bandwidth_gbps
        reserved = 0.0
        if self.endpoint is EndpointKind.ACE:
            reserved = self.ace.memory_bandwidth_gbps
        elif self.policy.comm_uses_memory:
            reserved = self.policy.comm_memory_bandwidth_gbps
        return max(0.0, self.memory.npu_memory_bandwidth_gbps - reserved)

    @property
    def comm_memory_bandwidth_gbps(self) -> float:
        """HBM bandwidth available for collective traffic."""
        if self.endpoint is EndpointKind.IDEAL:
            return self.memory.npu_memory_bandwidth_gbps
        if self.endpoint is EndpointKind.ACE:
            return self.ace.memory_bandwidth_gbps
        return self.policy.comm_memory_bandwidth_gbps

    @property
    def comm_sm_bandwidth_gbps(self) -> float:
        """Memory bandwidth the communication SMs can drive (baseline only)."""
        if not self.policy.comm_uses_npu_sms:
            return float("inf")
        return self.policy.comm_sms * self.compute.sm_memory_bandwidth_gbps

    def with_overrides(self, **changes) -> "SystemConfig":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **changes)

    def describe(self) -> Dict[str, object]:
        """Flat dictionary of the headline parameters (for reports/tests)."""
        return {
            "name": self.name,
            "endpoint": self.endpoint.value,
            "num_sms": self.compute.num_sms,
            "compute_sms": self.compute_sms,
            "comm_sms": self.policy.comm_sms,
            "peak_tflops": self.compute.peak_tflops_fp16,
            "compute_tflops": self.compute_tflops,
            "memory_bw_gbps": self.memory.npu_memory_bandwidth_gbps,
            "compute_mem_bw_gbps": self.compute_memory_bandwidth_gbps,
            "comm_mem_bw_gbps": self.comm_memory_bandwidth_gbps,
            "network_injection_bw_gbps": self.network.total_injection_bandwidth_gbps,
            "scheduling": self.collective_scheduling,
            "algorithm": self.collective_algorithm,
            "network_backend": self.network_backend,
            "compute_backend": self.compute_backend,
        }


TorusShape = Tuple[int, int, int]
