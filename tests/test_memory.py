"""HBM partitions, bus and DMA engines."""

import pytest

from repro.errors import ConfigurationError, ResourceError
from repro.memory.bus import Bus
from repro.memory.dma import DmaEngine
from repro.memory.hbm import MemoryPartition, MemorySystem


class TestMemoryPartition:
    def test_reads_and_writes_tracked_separately(self):
        part = MemoryPartition("comm", 100.0)
        part.read(1000.0, 0.0)
        part.write(500.0, 0.0)
        assert part.read_bytes == 1000.0
        assert part.write_bytes == 500.0

    def test_reads_and_writes_use_separate_channels(self):
        part = MemoryPartition("comm", 1.0)
        read_start, _ = part.read(100.0, 0.0)
        write_start, _ = part.write(100.0, 0.0)
        # Write does not queue behind the read (separate channel).
        assert write_start == pytest.approx(0.0)
        assert read_start == pytest.approx(0.0)

    def test_reads_serialize_with_reads(self):
        part = MemoryPartition("comm", 1.0)
        part.read(100.0, 0.0)
        second_start, _ = part.read(100.0, 0.0)
        assert second_start == pytest.approx(100.0)

    def test_invalid_bandwidth(self):
        with pytest.raises(ConfigurationError):
            MemoryPartition("x", 0.0)


class TestMemorySystem:
    def test_allocation_within_budget(self):
        mem = MemorySystem(900.0)
        comm = mem.allocate("comm", 450.0)
        mem.allocate("compute", 450.0)
        assert mem.allocated_bandwidth_gbps == pytest.approx(900.0)
        assert mem.partition("comm") is comm
        assert comm.bandwidth_gbps == 450.0

    def test_oversubscription_rejected(self):
        mem = MemorySystem(900.0)
        mem.allocate("comm", 600.0)
        with pytest.raises(ResourceError):
            mem.allocate("compute", 400.0)

    def test_duplicate_name_rejected(self):
        mem = MemorySystem(900.0)
        mem.allocate("comm", 100.0)
        with pytest.raises(ResourceError):
            mem.allocate("comm", 100.0)

    def test_unknown_partition(self):
        with pytest.raises(ResourceError):
            MemorySystem(900.0).partition("nope")


class TestBus:
    def test_transfer_with_overhead(self):
        bus = Bus("npu-afi", 500.0, transaction_overhead_ns=20.0)
        _, finish = bus.transfer(500.0, 0.0)
        assert finish == pytest.approx(21.0)
        # FIFO: a second transfer queues behind the first's serialization.
        assert bus.transfer(500.0, 0.0) == pytest.approx((1.0, 22.0))

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            Bus("b", 0.0)


class TestDmaEngine:
    def test_transfer_limited_by_slowest_leg(self):
        mem = MemoryPartition("ace", 128.0)
        bus = Bus("npu-afi", 500.0)
        dma = DmaEngine("tx", 500.0, mem, bus, "tx")
        _, finish = dma.transfer(128_000.0, 0.0)
        # 128 KB at 128 GB/s = 1000 ns dominates the bus (256 ns) and engine.
        assert finish == pytest.approx(1000.0, rel=0.05)
        assert mem.read_bytes == 128_000.0

    def test_rx_direction_writes_memory(self):
        mem = MemoryPartition("ace", 128.0)
        dma = DmaEngine("rx", 500.0, mem, None, "rx")
        dma.transfer(1000.0, 0.0)
        assert mem.write_bytes == 1000.0
        assert mem.read_bytes == 0.0

    def test_invalid_direction(self):
        with pytest.raises(ConfigurationError):
            DmaEngine("x", 100.0, None, None, "sideways")
