"""Per-link ports, payload splitting and the symmetric fabric's dimension pipes."""

import pytest

from repro.config.system import NetworkConfig
from repro.errors import CollectiveError
from repro.network.backend import mean_utilization
from repro.network.detailed import DetailedBackend
from repro.network.messages import split_payload
from repro.network.symmetric import SymmetricFabric
from repro.network.topology import Torus3D


class TestLink:
    """The detailed backend's ports take their class from the dimension."""

    def test_intra_vs_inter_package(self, torus_444):
        net = NetworkConfig()
        ports = DetailedBackend(torus_444, net)
        # A zero-byte message costs one link latency.
        local_latency = ports.reserve("local", 0.0, 0.0).finish
        vertical_latency = ports.reserve("vertical", 0.0, 0.0).finish
        assert local_latency == pytest.approx(net.intra_package_latency_ns)
        assert vertical_latency == pytest.approx(net.inter_package_latency_ns)
        assert net.intra_package_latency_ns < net.inter_package_latency_ns
        local = ports.reserve("local", 64_000.0, 1e6)
        vertical = ports.reserve("vertical", 64_000.0, 1e6)
        assert local.finish - local_latency < vertical.finish - vertical_latency

    def test_link_efficiency_applied(self, torus_444):
        net = NetworkConfig()
        ports = DetailedBackend(torus_444, net)
        finish = ports.reserve("local", 1000.0, 0.0).finish
        # Two 200 GB/s intra-package ports at 94 % efficiency share the bytes.
        serialization = 500.0 / (200.0 * 0.94)
        assert finish == pytest.approx(serialization + net.intra_package_latency_ns)

    def test_reserve_accumulates_stats(self, torus_444):
        ports = DetailedBackend(torus_444, NetworkConfig())
        ports.reserve("local", 1000.0, 0.0)
        assert ports.per_dimension_bytes()["local"] == 1000.0
        assert ports.bytes_injected == 1000.0
        assert ports.last_activity() > 0.0


class TestMessages:
    def test_split_payload(self):
        assert split_payload(100, 64) == [64, 36]
        assert split_payload(128, 64) == [64, 64]
        with pytest.raises(CollectiveError):
            split_payload(0, 64)


class TestSymmetricFabric:
    def test_dimension_pipes_match_table5(self, torus_444):
        fabric = SymmetricFabric(torus_444, NetworkConfig())
        assert set(fabric.dimensions) == {"local", "vertical", "horizontal"}
        assert fabric.pipe("local").bandwidth_gbps == pytest.approx(376.0)
        assert fabric.pipe("vertical").bandwidth_gbps == pytest.approx(47.0)
        injection = sum(fabric.pipe(d).bandwidth_gbps for d in fabric.dimensions)
        assert injection == pytest.approx(470.0)

    def test_degenerate_dimensions_absent(self):
        fabric = SymmetricFabric(Torus3D(8, 1, 1), NetworkConfig())
        assert fabric.dimensions == ["local"]
        assert not fabric.has_dimension("vertical")

    def test_utilization_and_bytes(self, torus_444):
        fabric = SymmetricFabric(torus_444, NetworkConfig())
        fabric.pipe("vertical").reserve(47_000.0, 0.0)  # 1000 ns of vertical traffic
        assert fabric.bytes_injected == pytest.approx(47_000.0)
        assert fabric.utilization(1000.0) == pytest.approx(1.0 / 3.0, rel=1e-3)
        assert fabric.last_activity() == pytest.approx(1000.0)

    def test_utilization_series(self, torus_444):
        fabric = SymmetricFabric(torus_444, NetworkConfig())
        fabric.pipe("local").reserve(376_0.0, 0.0)
        series = fabric.utilization_series(horizon_ns=100.0, window_ns=10.0)
        assert len(series) == 10
        assert series[0][1] > 0


def test_mean_utilization_adds_left_to_right():
    # A compensated sum (Python 3.12's sum()) would give 1 + 2e-16 here.
    assert mean_utilization([1.0, 1e-16, 1e-16]) == 1.0 / 3
    assert mean_utilization(iter([0.25, 0.5])) == 0.375
