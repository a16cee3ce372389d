"""System configuration and Table VI presets."""

import pytest

from repro.config.presets import (
    SYSTEM_CONFIG_NAMES,
    make_system,
    torus_shape_for_npus,
)
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
from repro.units import MB


class TestComputeConfig:
    def test_defaults_match_table5(self):
        cfg = ComputeConfig()
        assert cfg.num_sms == 80
        assert cfg.peak_tflops_fp16 == 120.0
        assert cfg.frequency_mhz == 1245.0

    def test_sm_memory_bandwidth(self):
        # 64 B/cycle at 1245 MHz is ~80 GB/s per SM (Section III).
        assert ComputeConfig().sm_memory_bandwidth_gbps == pytest.approx(79.68, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ComputeConfig(num_sms=0)
        with pytest.raises(ConfigurationError):
            ComputeConfig(peak_tflops_fp16=-1)


class TestNetworkConfig:
    def test_table5_ring_bandwidths(self):
        net = NetworkConfig()
        assert net.local_ring_bandwidth_gbps == pytest.approx(376.0)
        assert net.vertical_ring_bandwidth_gbps == pytest.approx(47.0)
        assert net.dimension_bandwidth_gbps("horizontal") == pytest.approx(47.0)
        injection = sum(
            net.dimension_bandwidth_gbps(dim) for dim in ("local", "vertical", "horizontal")
        )
        assert injection == pytest.approx(470.0)

    def test_latencies(self):
        net = NetworkConfig()
        assert net.intra_package_latency_ns == pytest.approx(72.3, rel=1e-2)
        assert net.inter_package_latency_ns == pytest.approx(401.6, rel=1e-2)
        assert net.dimension_latency_ns("local") < net.dimension_latency_ns("vertical")

    def test_dimension_lookup_rejects_unknown(self):
        net = NetworkConfig()
        with pytest.raises(ConfigurationError):
            net.dimension_bandwidth_gbps("diagonal")
        with pytest.raises(ConfigurationError):
            net.dimension_latency_ns("diagonal")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(link_efficiency=0.0)


class TestAceConfig:
    def test_defaults_match_section4(self):
        ace = AceConfig()
        assert ace.sram_bytes == 4 * MB
        assert ace.num_fsms == 16
        assert ace.num_alus == 4
        assert ace.chunk_bytes == 64 * 1024

    def test_alu_throughput(self):
        # 4 ALUs x 64 B/cycle x 1245 MHz ~= 319 GB/s.
        assert AceConfig().alu_throughput_gbps == pytest.approx(318.7, rel=1e-2)

    def test_max_inflight_chunks(self):
        assert AceConfig().max_inflight_chunks == 64


class TestSystemConfig:
    @pytest.mark.parametrize("name", SYSTEM_CONFIG_NAMES)
    def test_all_presets_build(self, name):
        system = make_system(name)
        assert isinstance(system, SystemConfig)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_system("turbo")

    def test_comm_opt_resource_split(self):
        system = make_system("baseline_comm_opt")
        assert system.policy.comm_sms == 6
        assert system.policy.comm_memory_bandwidth_gbps == 450.0
        assert system.compute_sms == 74
        assert system.compute_memory_bandwidth_gbps == pytest.approx(450.0)

    def test_comp_opt_resource_split(self):
        system = make_system("baseline_comp_opt")
        assert system.policy.comm_sms == 2
        assert system.policy.comm_memory_bandwidth_gbps == pytest.approx(128.0)
        assert system.compute_memory_bandwidth_gbps == pytest.approx(772.0)

    def test_ace_keeps_all_sms_for_compute(self):
        system = make_system("ace")
        assert system.compute_sms == 80
        assert system.ace.memory_bandwidth_gbps == pytest.approx(128.0)
        assert system.compute_memory_bandwidth_gbps == pytest.approx(772.0)

    def test_ideal_charges_nothing(self):
        system = make_system("ideal")
        assert system.compute_sms == 80
        assert system.compute_memory_bandwidth_gbps == pytest.approx(900.0)
        assert system.collective_launch_overhead_ns == 0.0

    def test_no_overlap_time_shares_resources(self):
        system = make_system("baseline_no_overlap")
        assert system.compute_sms == 80
        assert system.compute_memory_bandwidth_gbps == pytest.approx(900.0)
        assert system.endpoint is EndpointKind.BASELINE_NO_OVERLAP

    def test_baselines_have_launch_overhead(self):
        assert make_system("baseline_comm_opt").collective_launch_overhead_ns > 0
        assert make_system("ace").collective_launch_overhead_ns > 0
        assert (
            make_system("ace").collective_launch_overhead_ns
            < make_system("baseline_comm_opt").collective_launch_overhead_ns
        )

    def test_oversubscribed_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(
                name="bad",
                endpoint=EndpointKind.BASELINE_COMM_OPT,
                policy=ResourcePolicy(comm_sms=100, comm_memory_bandwidth_gbps=10),
            )
        with pytest.raises(ConfigurationError):
            SystemConfig(
                name="bad",
                endpoint=EndpointKind.BASELINE_COMM_OPT,
                policy=ResourcePolicy(comm_sms=1, comm_memory_bandwidth_gbps=10_000),
            )

    def test_with_overrides(self):
        system = make_system("ace")
        modified = system.with_overrides(collective_scheduling="fifo")
        assert modified.collective_scheduling == "fifo"
        assert system.collective_scheduling == "lifo"

    def test_invalid_scheduling_rejected(self):
        with pytest.raises(ConfigurationError):
            make_system("ace").with_overrides(collective_scheduling="random")


class TestTorusShapes:
    @pytest.mark.parametrize(
        "npus,shape",
        [(16, (4, 2, 2)), (32, (4, 4, 2)), (64, (4, 4, 4)), (128, (4, 8, 4))],
    )
    def test_paper_shapes(self, npus, shape):
        assert torus_shape_for_npus(npus) == shape
        assert shape[0] * shape[1] * shape[2] == npus

    def test_unknown_size_rejected(self):
        with pytest.raises(ConfigurationError):
            torus_shape_for_npus(7)


class TestMemoryConfig:
    def test_defaults(self):
        mem = MemoryConfig()
        assert mem.npu_memory_bandwidth_gbps == 900.0
        assert mem.npu_afi_bus_bandwidth_gbps == 500.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MemoryConfig(npu_memory_bandwidth_gbps=0)
        with pytest.raises(ConfigurationError):
            MemoryConfig(transaction_overhead_ns=-1)


class TestCollectiveAlgorithmKnob:
    def test_default_is_auto(self):
        assert make_system("ace").collective_algorithm == "auto"

    def test_make_system_pins_algorithm(self):
        system = make_system("ace").with_overrides(collective_algorithm="ring")
        assert system.collective_algorithm == "ring"

    def test_with_overrides_round_trip(self):
        system = make_system("ideal").with_overrides(collective_algorithm="tree")
        assert system.collective_algorithm == "tree"

    def test_empty_algorithm_rejected(self):
        with pytest.raises(ConfigurationError, match="collective_algorithm"):
            make_system("ace").with_overrides(collective_algorithm="")

    def test_switch_and_direct_dimension_classes(self):
        network = NetworkConfig()
        assert network.dimension_bandwidth_gbps("switch") == network.local_ring_bandwidth_gbps
        assert network.dimension_bandwidth_gbps("direct") == network.vertical_ring_bandwidth_gbps
        assert network.dimension_latency_ns("switch") == network.intra_package_latency_ns
        assert network.dimension_latency_ns("direct") == network.inter_package_latency_ns
        with pytest.raises(ConfigurationError):
            network.dimension_bandwidth_gbps("warp")
