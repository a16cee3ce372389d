"""Configuration dataclasses for the simulated training platform.

The default values mirror Table V of the paper:

* GPU-like NPU: 80 SMs, 120 TFLOPs FP16 peak, 1245 MHz.
* 900 GB/s NPU-memory bandwidth, 500 GB/s NPU-AFI bus bandwidth.
* Links: 200 GB/s intra-package (2 links -> 400 GB/s local ring),
  25 GB/s inter-package (2 links per direction ring -> 50 GB/s vertical and
  50 GB/s horizontal rings), 90 / 500 cycles link latency, 94 % efficiency.
* ACE: 4 MB SRAM, 16 FSMs, 4 wide ALUs, 64 KB initial chunks.

Range bounds are declared once, in each field's metadata (see
:mod:`repro.config.fields`); a ``__post_init__`` checks them and any
cross-field rule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.config.fields import FRACTION, NAME, NON_NEGATIVE, POSITIVE, UNIT_INTERVAL, check_bounds
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

    num_sms: int = field(default=80, metadata=POSITIVE)
    peak_tflops_fp16: float = field(default=120.0, metadata=POSITIVE)
    frequency_mhz: float = field(default=1245.0, metadata=POSITIVE)
    #: Per-SM read/write width used to derive the memory bandwidth one SM can
    #: drive for communication (64 bytes/cycle at 1245 MHz ~= 80 GB/s, Sec. III).
    sm_bytes_per_cycle: float = field(default=64.0, metadata=POSITIVE)
    #: Fraction of peak FLOPs delivered by the matrix (systolic/tensor) units.
    matrix_unit_fraction: float = field(default=0.98, metadata=FRACTION)
    #: Fraction of peak FLOPs the SIMD vector lanes can sustain.
    vector_unit_fraction: float = field(default=0.125, metadata=FRACTION)
    #: Fraction of peak FLOPs the scalar/control pipeline can sustain.
    scalar_unit_fraction: float = field(default=0.002, metadata=FRACTION)
    #: Fraction of a kernel's FLOPs replayed on the scalar unit as address
    #: generation and control flow.
    scalar_flops_fraction: float = field(default=1e-5, metadata=UNIT_INTERVAL)
    #: Streaming-FLOP density: at most this many of a kernel's FLOPs per DMA
    #: byte run on the vector unit (epilogues, reductions); the rest are
    #: matrix work.
    vector_flops_per_byte: float = field(default=2.0, metadata=POSITIVE)
    #: Achieved wave occupancy of the matrix/vector units.
    unit_occupancy: float = field(default=0.985, metadata=FRACTION)
    #: Fraction of a kernel's DMA stream hidden under unit execution
    #: (double-buffering efficiency); the remainder is exposed serially.
    dma_overlap: float = field(default=0.97, metadata=UNIT_INTERVAL)
    #: Per-core-complex SRAM scratchpad staging DMA tiles (fill/drain bound).
    unit_sram_bytes: int = field(default=192 * KB, metadata=POSITIVE)
    #: Register-file capacity; kernels whose traffic fits bypass SRAM staging.
    register_file_bytes: int = field(default=64 * KB, metadata=POSITIVE)

    def __post_init__(self) -> None:
        check_bounds(self)

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

    npu_memory_bandwidth_gbps: float = field(default=900.0, metadata=POSITIVE)
    npu_afi_bus_bandwidth_gbps: float = field(default=500.0, metadata=POSITIVE)
    #: Fixed per-transaction overhead on the NPU-AFI bus and memory channel,
    #: modelling transaction scheduling / queuing setup (Section V).
    transaction_overhead_ns: float = field(default=20.0, metadata=NON_NEGATIVE)

    def __post_init__(self) -> None:
        check_bounds(self)


#: Canonical mapping of fabric dimensions to their physical link class.
#: Torus dimensions follow Table V (``local`` rides the silicon interposer,
#: ``vertical``/``horizontal`` the inter-package links); the non-torus fabrics
#: reuse the same classes — a ``switch`` port is provisioned like the
#: intra-package links (an NVSwitch-class group) while ``direct``
#: (fully-connected) point-to-point links are inter-package class.  This is
#: the single source of truth consulted by both the symmetric fabric
#: (:meth:`NetworkConfig.dimension_bandwidth_gbps`) and the per-link model
#: (:class:`repro.network.detailed.DetailedBackend`).
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

    intra_package_link_bandwidth_gbps: float = field(default=200.0, metadata=POSITIVE)
    inter_package_link_bandwidth_gbps: float = field(default=25.0, metadata=POSITIVE)
    intra_package_links: int = field(default=2, metadata=POSITIVE)
    inter_package_links_per_dim: int = field(default=2, metadata=POSITIVE)
    intra_package_latency_cycles: float = field(default=90.0, metadata=NON_NEGATIVE)
    inter_package_latency_cycles: float = field(default=500.0, metadata=NON_NEGATIVE)
    link_efficiency: float = field(default=0.94, metadata=FRACTION)
    frequency_mhz: float = field(default=1245.0, metadata=POSITIVE)

    def __post_init__(self) -> None:
        check_bounds(self)

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

    sram_bytes: int = field(default=4 * MB, metadata=POSITIVE)
    num_fsms: int = field(default=16, metadata=POSITIVE)
    num_alus: int = field(default=4, metadata=POSITIVE)
    #: Each ALU performs 16 x FP32 (or 32 x FP16) operations per cycle on a
    #: 64-byte operand bus (Section IV-I).
    alu_bytes_per_cycle: float = field(default=64.0, metadata=POSITIVE)
    frequency_mhz: float = field(default=1245.0, metadata=POSITIVE)
    chunk_bytes: int = field(default=64 * KB, metadata=POSITIVE)
    #: SRAM macro read+write bandwidth available to the datapath, per bank.
    sram_banks: int = field(default=4, metadata=POSITIVE)
    sram_bank_bandwidth_gbps: float = field(default=160.0, metadata=POSITIVE)
    #: DMA engines moving payloads between main memory and the ACE SRAM.
    tx_dma_bandwidth_gbps: float = field(default=500.0, metadata=POSITIVE)
    rx_dma_bandwidth_gbps: float = field(default=500.0, metadata=POSITIVE)
    #: Memory bandwidth carved out of HBM for ACE DMA traffic (128 GB/s is the
    #: operating point the paper identifies in Fig. 5).
    memory_bandwidth_gbps: float = field(default=128.0, metadata=POSITIVE)

    def __post_init__(self) -> None:
        check_bounds(self)

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
    """What a baseline reserves from the NPU for its collective kernels.

    Table VI: BaselineCommOpt reserves 6 SMs and 450 GB/s of HBM bandwidth
    (BaselineNoOverlap gets the same while its collectives run), and
    BaselineCompOpt 2 SMs and 128 GB/s.  ACE draws only its DMA slice
    (``AceConfig.memory_bandwidth_gbps``) and Ideal nothing, so both carry
    the empty policy; :class:`SystemConfig` rejects any other.
    """

    comm_sms: int = field(default=0, metadata=NON_NEGATIVE)
    comm_memory_bandwidth_gbps: float = field(default=0.0, metadata=NON_NEGATIVE)

    def __post_init__(self) -> None:
        check_bounds(self)


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
    collective_scheduling: str = field(
        default="lifo",
        metadata={"bound": ("'lifo' or 'fifo'", lambda value: value in ("lifo", "fifo"))},
    )
    #: Collective algorithm the planner should use: "auto" (cheapest feasible
    #: plan for the topology — the paper's hierarchical/direct choices on the
    #: torus) or an explicit name from the planner's table ("hierarchical",
    #: "direct", "ring", "tree", "halving_doubling", "p2p").  An explicit
    #: name applies to the operations that algorithm implements; a workload's
    #: other collectives (e.g. DLRM's all-to-all under a pinned all-reduce
    #: algorithm) fall back to auto selection.  ``SimJob`` checks the name.
    collective_algorithm: str = field(default="auto", metadata=NAME)
    #: Network model executing the collective traffic: "symmetric" (the fast
    #: representative-NPU analytical model, the default and the paper's sweep
    #: vehicle), "detailed" (per-link FIFO serialization with hop-by-hop
    #: contention; small-system validation and per-link observability), or
    #: "hybrid" (per-link detail on the most-contended dimension, pipes on
    #: the rest).  ``SimJob`` checks the name.
    network_backend: str = field(default="symmetric", metadata=NAME)
    #: Compute model pricing training kernels: "roofline" (max of compute and
    #: memory bounds, the default and the model every golden value pins) or
    #: "execution-unit" (Scalar/Matrix/Vector/DMA units with SRAM staging and
    #: occupancy/overlap derates — parameters on :class:`ComputeConfig`).
    #: ``SimJob`` checks the name.
    compute_backend: str = field(default="roofline", metadata=NAME)
    #: Fixed overhead from issuing a collective until its first chunk can be
    #: processed.  For the baselines this is the communication-kernel launch
    #: and scheduling cost on a busy GPU (Section III measures multi-us
    #: degradations from exactly this contention); for ACE it is the small
    #: NPU-to-AFI command interface cost; the ideal system pays nothing.
    collective_launch_overhead_ns: float = field(default=0.0, metadata=NON_NEGATIVE)
    #: Parallelisation strategy override for training runs on this platform:
    #: ``None`` (each workload's native strategy, the default), or a spec
    #: string — "data" | "model" | "hybrid" | "zero" | "pipeline" |
    #: "pipeline:<stages>x<microbatches>".  ``SimJob.parallelism`` sets it.
    parallelism: Optional[str] = None

    def __post_init__(self) -> None:
        check_bounds(self)
        hbm = self.memory.npu_memory_bandwidth_gbps
        if self.endpoint is EndpointKind.ACE and self.ace.memory_bandwidth_gbps > hbm:
            # The ACE endpoint books its DMA channels at this bandwidth.
            raise ConfigurationError(
                f"ace.memory_bandwidth_gbps must be at most "
                f"memory.npu_memory_bandwidth_gbps ({hbm}), "
                f"got {self.ace.memory_bandwidth_gbps}",
                field="ace.memory_bandwidth_gbps",
            )
        policy = self.policy
        if not self.endpoint.is_baseline:
            for name in ("comm_sms", "comm_memory_bandwidth_gbps"):
                if getattr(policy, name):
                    raise ConfigurationError(
                        f"only a baseline reserves NPU resources for communication: "
                        f"policy.{name} must be 0 on {self.endpoint.value}, "
                        f"got {getattr(policy, name)}",
                        field=f"policy.{name}",
                    )
        else:
            if policy.comm_sms < 1:
                raise ConfigurationError(
                    f"baseline endpoint needs at least one communication SM: "
                    f"policy.comm_sms must be at least 1, got {policy.comm_sms}",
                    field="policy.comm_sms",
                )
            if policy.comm_sms > self.compute.num_sms:
                raise ConfigurationError(
                    f"cannot allocate more SMs to communication than the NPU has: "
                    f"policy.comm_sms must be at most compute.num_sms "
                    f"({self.compute.num_sms}), got {policy.comm_sms}",
                    field="policy.comm_sms",
                )
            if policy.comm_memory_bandwidth_gbps <= 0:
                raise ConfigurationError(
                    f"baseline endpoint needs a positive communication memory bandwidth: "
                    f"policy.comm_memory_bandwidth_gbps must be positive, "
                    f"got {policy.comm_memory_bandwidth_gbps}",
                    field="policy.comm_memory_bandwidth_gbps",
                )
            if policy.comm_memory_bandwidth_gbps > hbm:
                raise ConfigurationError(
                    f"cannot allocate more memory bandwidth to communication than "
                    f"available: policy.comm_memory_bandwidth_gbps must be at most "
                    f"memory.npu_memory_bandwidth_gbps ({hbm}), "
                    f"got {policy.comm_memory_bandwidth_gbps}",
                    field="policy.comm_memory_bandwidth_gbps",
                )
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
        so compute keeps the full HBM bandwidth; ACE gives up its DMA slice.
        """
        if self.endpoint is EndpointKind.BASELINE_NO_OVERLAP:
            return self.memory.npu_memory_bandwidth_gbps
        if self.endpoint is EndpointKind.ACE:
            reserved = self.ace.memory_bandwidth_gbps
        else:
            reserved = self.policy.comm_memory_bandwidth_gbps
        return max(0.0, self.memory.npu_memory_bandwidth_gbps - reserved)

    def with_overrides(self, **changes) -> "SystemConfig":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **changes)


TorusShape = Tuple[int, int, int]
