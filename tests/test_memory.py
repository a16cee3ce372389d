"""The endpoints' memory path: HBM channels, the NPU-AFI bus and the DMAs.

Each endpoint books these pipes itself; the tests drive them through
:class:`AceEndpoint` and check the HBM budget on :class:`SystemConfig`.
Defaults (Table V): a 500 GB/s bus and DMA engines, a 128 GB/s ACE HBM
slice and a 20 ns transaction overhead on the bus and on each HBM channel.
"""

import pytest

from repro.config.presets import make_system
from repro.config.system import AceConfig, MemoryConfig, ResourcePolicy, SystemConfig
from repro.endpoint import AceEndpoint
from repro.errors import ConfigurationError

OVERHEAD_NS = 20.0


def _ace(**fields) -> AceEndpoint:
    return AceEndpoint(make_system("ace", ace=AceConfig(**fields)))


class TestMemoryPartition:
    """ACE's HBM slice: separate read and write channels of its bandwidth."""

    def test_reads_and_writes_tracked_separately(self):
        endpoint = _ace()
        endpoint.ingress(1000.0, 0.0)
        endpoint.egress(500.0, 0.0)
        assert endpoint.memory_read_bytes == 1000.0
        assert endpoint.memory_write_bytes == 500.0

    def test_reads_and_writes_use_separate_channels(self):
        endpoint = _ace(memory_bandwidth_gbps=1.0)
        read_finish = endpoint.ingress(100.0, 0.0)
        write_finish = endpoint.egress(100.0, 0.0)
        # The write does not queue behind the read (separate channel).
        assert read_finish == pytest.approx(100.0 + OVERHEAD_NS)
        assert write_finish == pytest.approx(100.0 + OVERHEAD_NS)

    def test_reads_serialize_with_reads(self):
        endpoint = _ace(memory_bandwidth_gbps=1.0)
        endpoint.ingress(100.0, 0.0)
        assert endpoint.ingress(100.0, 0.0) == pytest.approx(200.0 + OVERHEAD_NS)

    def test_invalid_bandwidth(self):
        with pytest.raises(ConfigurationError):
            AceConfig(memory_bandwidth_gbps=0.0)
        with pytest.raises(ConfigurationError, match="memory bandwidth"):
            make_system("baseline_comm_opt").with_overrides(
                policy=ResourcePolicy(comm_sms=6, comm_memory_bandwidth_gbps=0.0)
            )


class TestMemorySystem:
    """The NPU's HBM budget: communication slices fit inside it."""

    def test_allocation_within_budget(self):
        for name in ("baseline_comm_opt", "baseline_comp_opt", "ace"):
            system = make_system(name)
            comm = (
                system.ace.memory_bandwidth_gbps
                if name == "ace"
                else system.policy.comm_memory_bandwidth_gbps
            )
            assert comm + system.compute_memory_bandwidth_gbps == pytest.approx(
                system.memory.npu_memory_bandwidth_gbps
            )
        # A slice as wide as the whole HBM is still within budget.
        _ace(memory_bandwidth_gbps=900.0)

    def test_oversubscription_rejected(self):
        ace = make_system("ace")
        with pytest.raises(ConfigurationError, match="communication") as info:
            ace.with_overrides(policy=ResourcePolicy(comm_memory_bandwidth_gbps=950.0))
        assert info.value.field == "policy.comm_memory_bandwidth_gbps"
        with pytest.raises(ConfigurationError, match="ace.memory_bandwidth_gbps") as info:
            ace.with_overrides(ace=AceConfig(memory_bandwidth_gbps=950.0))
        assert info.value.field == "ace.memory_bandwidth_gbps"
        # The rule guards the slice the ACE endpoint books, not other systems.
        baseline = make_system("baseline_comm_opt")
        assert isinstance(
            baseline.with_overrides(ace=AceConfig(memory_bandwidth_gbps=950.0)), SystemConfig
        )


class TestBus:
    """The NPU-AFI bus: FIFO, one transaction overhead per transfer."""

    def test_transfer_with_overhead(self):
        # An 800 GB/s HBM slice leaves the 500 GB/s bus as the slowest leg.
        endpoint = _ace(memory_bandwidth_gbps=800.0)
        assert endpoint.ingress(500.0, 0.0) == pytest.approx(1.0 + OVERHEAD_NS)
        # FIFO: a second transfer queues behind the first's serialization,
        # and the overhead is charged once per transfer, not accumulated.
        assert endpoint.ingress(500.0, 0.0) == pytest.approx(2.0 + OVERHEAD_NS)
        # Both DMA directions share the one bus.
        assert endpoint.egress(500.0, 0.0) == pytest.approx(3.0 + OVERHEAD_NS)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            MemoryConfig(npu_afi_bus_bandwidth_gbps=0.0)


class TestDmaEngine:
    """ACE's TX / RX DMAs: a transfer finishes with its slowest leg."""

    def test_transfer_limited_by_slowest_leg(self):
        num_bytes = 128_000.0
        legs = [
            # The engine binds: 128 KB at 50 GB/s.
            ({"tx_dma_bandwidth_gbps": 50.0}, num_bytes / 50.0),
            # The 500 GB/s bus binds once the HBM slice is wider than it.
            ({"memory_bandwidth_gbps": 800.0}, num_bytes / 500.0 + OVERHEAD_NS),
            # The 128 GB/s HBM slice binds (the defaults).
            ({}, num_bytes / 128.0 + OVERHEAD_NS),
        ]
        for fields, finish in legs:
            endpoint = _ace(**fields)
            assert endpoint.ingress(num_bytes, 0.0) == pytest.approx(finish), fields
            assert endpoint.memory_read_bytes == num_bytes

    def test_rx_direction_writes_memory(self):
        endpoint = _ace()
        endpoint.egress(1000.0, 0.0)
        assert endpoint.memory_write_bytes == 1000.0
        assert endpoint.memory_read_bytes == 0.0
