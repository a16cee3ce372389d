"""HBM bandwidth model.

The paper's methodology statically partitions the NPU's 900 GB/s of HBM
bandwidth between the training computation and the communication path
(Table VI): e.g. BaselineCommOpt reserves 450 GB/s for collective traffic,
BaselineCompOpt and ACE reserve 128 GB/s.  :class:`MemorySystem` owns the
total bandwidth and hands out named :class:`MemoryPartition` views that track
read and write traffic separately.

Read traffic is the quantity the paper reasons about ("1.5N bytes need to be
read from memory to send out N bytes", Section VI-A), so partitions rate-limit
on reads + writes through a shared pipe but expose reads and writes separately
for analysis.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import ConfigurationError, ResourceError
from repro.sim.resources import BandwidthResource


class MemoryPartition:
    """A named slice of the HBM bandwidth with independent FIFO queuing.

    Reads and writes travel on separate channels of the same nominal
    bandwidth (HBM pseudo-channel behaviour).  The paper's bandwidth
    requirement analysis (Section VI-A) is expressed in terms of read traffic
    — "1.5N bytes read per N bytes sent" for the baseline, "N bytes read per
    2.25N sent" for ACE — and the separate channels keep that relationship
    intact: egress writes do not steal bandwidth from the read stream that
    feeds the network.
    """

    def __init__(self, name: str, bandwidth_gbps: float, transaction_overhead_ns: float = 0.0) -> None:
        if bandwidth_gbps <= 0:
            raise ConfigurationError(
                f"memory partition {name!r} needs positive bandwidth, got {bandwidth_gbps}"
            )
        self.name = name
        self.bandwidth_gbps = bandwidth_gbps
        self.transaction_overhead_ns = transaction_overhead_ns
        self._read_pipe = BandwidthResource(
            name=f"hbm[{name}].read",
            bandwidth_gbps=bandwidth_gbps,
            latency_ns=transaction_overhead_ns,
        )
        self._write_pipe = BandwidthResource(
            name=f"hbm[{name}].write",
            bandwidth_gbps=bandwidth_gbps,
            latency_ns=transaction_overhead_ns,
        )
        self._read_bytes = 0.0
        self._write_bytes = 0.0

    def read(self, num_bytes: float, earliest_start: float) -> Tuple[float, float]:
        """Stream ``num_bytes`` of reads through this partition: ``(start, finish)``."""
        self._read_bytes += num_bytes
        return self._read_pipe.reserve_times(num_bytes, earliest_start)

    def write(self, num_bytes: float, earliest_start: float) -> Tuple[float, float]:
        """Stream ``num_bytes`` of writes through this partition: ``(start, finish)``."""
        self._write_bytes += num_bytes
        return self._write_pipe.reserve_times(num_bytes, earliest_start)

    @property
    def read_bytes(self) -> float:
        return self._read_bytes

    @property
    def write_bytes(self) -> float:
        return self._write_bytes

    @property
    def total_bytes(self) -> float:
        return self._read_bytes + self._write_bytes

    @property
    def busy_time(self) -> float:
        return self._read_pipe.busy_time + self._write_pipe.busy_time

    def utilization(self, horizon_ns: float) -> float:
        """Read-channel utilization (the channel the paper's analysis tracks)."""
        return self._read_pipe.utilization(horizon_ns)

    def achieved_bandwidth_gbps(self, horizon_ns: float) -> float:
        if horizon_ns <= 0:
            return 0.0
        return self.total_bytes / horizon_ns

    def reset(self) -> None:
        self._read_pipe.reset()
        self._write_pipe.reset()
        self._read_bytes = 0.0
        self._write_bytes = 0.0


class MemorySystem:
    """The NPU's HBM, split into named bandwidth partitions.

    Partitions must not oversubscribe the physical bandwidth; this mirrors the
    static allocation the paper's system configurations use and is validated
    at creation time.
    """

    def __init__(self, total_bandwidth_gbps: float, transaction_overhead_ns: float = 0.0) -> None:
        if total_bandwidth_gbps <= 0:
            raise ConfigurationError("total memory bandwidth must be positive")
        self.total_bandwidth_gbps = total_bandwidth_gbps
        self.transaction_overhead_ns = transaction_overhead_ns
        self._partitions: Dict[str, MemoryPartition] = {}

    def allocate(self, name: str, bandwidth_gbps: float) -> MemoryPartition:
        """Create a partition of ``bandwidth_gbps``; raises if oversubscribed."""
        if name in self._partitions:
            raise ResourceError(f"memory partition {name!r} already exists")
        allocated = sum(p.bandwidth_gbps for p in self._partitions.values())
        if allocated + bandwidth_gbps > self.total_bandwidth_gbps + 1e-9:
            raise ResourceError(
                f"cannot allocate {bandwidth_gbps} GB/s to {name!r}: "
                f"{allocated} of {self.total_bandwidth_gbps} GB/s already allocated"
            )
        partition = MemoryPartition(name, bandwidth_gbps, self.transaction_overhead_ns)
        self._partitions[name] = partition
        return partition

    def partition(self, name: str) -> MemoryPartition:
        try:
            return self._partitions[name]
        except KeyError:
            raise ResourceError(f"no memory partition named {name!r}") from None

    @property
    def partitions(self) -> Dict[str, MemoryPartition]:
        return dict(self._partitions)

    @property
    def allocated_bandwidth_gbps(self) -> float:
        return sum(p.bandwidth_gbps for p in self._partitions.values())

    @property
    def free_bandwidth_gbps(self) -> float:
        return self.total_bandwidth_gbps - self.allocated_bandwidth_gbps

    def total_traffic_bytes(self) -> float:
        return sum(p.total_bytes for p in self._partitions.values())

    def reset(self) -> None:
        for partition in self._partitions.values():
            partition.reset()
