"""Torus, ring, switch and fully-connected topologies plus the spec parser."""

import pytest

from repro.errors import TopologyError
from repro.network.topology import (
    FullyConnected,
    RingTopology,
    SingleHopTopology,
    SwitchTopology,
    Torus2D,
    Torus3D,
    topology_from_spec,
    torus_from_shape,
)


class TestTorus3D:
    def test_node_count(self, torus_444):
        assert torus_444.num_nodes == 64
        assert torus_444.name == "4x4x4"

    def test_coordinate_roundtrip(self, torus_444):
        # Node ids linearise coordinates as l + L * (v + V * h).
        for node in torus_444.nodes():
            l, v, h = torus_444.coordinates(node)
            assert l + 4 * (v + 4 * h) == node

    def test_coordinates_out_of_range(self, torus_444):
        with pytest.raises(TopologyError):
            torus_444.coordinates(64)
        with pytest.raises(TopologyError):
            torus_444.coordinates(-1)

    def test_ring_members(self, torus_444):
        # Node 0's vertical ring: one node per package row, L apart.
        members = [0, 4, 8, 12]
        positions = [torus_444.ring_position(m, "vertical") for m in members]
        assert positions == [0, 1, 2, 3]
        assert {torus_444.ring_position(m, "local") for m in members} == {0}

    def test_active_dimensions_skips_degenerate(self):
        torus = Torus3D(8, 1, 1)
        assert torus.active_dimensions() == ["local"]
        assert torus.dimension_size("vertical") == 1

    def test_degenerate_torus_rejected(self):
        with pytest.raises(TopologyError):
            Torus3D(1, 1, 1)
        with pytest.raises(TopologyError):
            Torus3D(0, 2, 2)

    def test_dimension_size_lookup(self, torus_422):
        sizes = {d: torus_422.dimension_size(d) for d in ("local", "vertical", "horizontal")}
        assert sizes == {"local": 4, "vertical": 2, "horizontal": 2}
        with pytest.raises(TopologyError):
            torus_422.dimension_size("bogus")

    def test_torus_from_shape(self):
        torus = torus_from_shape((4, 8, 4))
        assert torus.num_nodes == 128
        with pytest.raises(TopologyError):
            torus_from_shape((4, 8))


class TestRingTopology:
    def test_too_small(self):
        with pytest.raises(TopologyError):
            RingTopology(1)


class TestSwitchTopology:
    def test_full_connectivity(self):
        # Every endpoint pair is one hop apart, over the one switch dimension.
        switch = SwitchTopology(8)
        assert isinstance(switch, SingleHopTopology)
        assert switch.active_dimensions() == ["switch"]
        assert switch.num_nodes == 8

    def test_too_small(self):
        with pytest.raises(TopologyError):
            SwitchTopology(1)


class TestFullyConnected:
    def test_full_connectivity(self):
        fc = FullyConnected(8)
        assert isinstance(fc, SingleHopTopology)
        assert fc.active_dimensions() == ["direct"]
        assert fc.name == "fc-8"

    def test_too_small(self):
        with pytest.raises(TopologyError):
            FullyConnected(1)

    def test_cache_key_distinct_from_switch(self):
        assert FullyConnected(8).cache_key() != SwitchTopology(8).cache_key()


class TestTorus2D:
    def test_is_degenerate_torus3d(self):
        torus = Torus2D(4, 4)
        assert torus.num_nodes == 16
        assert torus.shape == (1, 4, 4)
        assert torus.active_dimensions() == ["vertical", "horizontal"]
        assert torus.name == "4x4"

    def test_shares_cache_key_with_equivalent_3d_shape(self):
        assert Torus2D(4, 4).cache_key() == Torus3D(1, 4, 4).cache_key()


class TestTopologyFromSpec:
    @pytest.mark.parametrize(
        "spec, cls, nodes",
        [
            ("torus:4x4x4", Torus3D, 64),
            ("torus2d:8x8", Torus2D, 64),
            ("ring:16", RingTopology, 16),
            ("switch:64", SwitchTopology, 64),
            ("fc:16", FullyConnected, 16),
        ],
    )
    def test_valid_specs(self, spec, cls, nodes):
        topology = topology_from_spec(spec)
        assert isinstance(topology, cls)
        assert topology.num_nodes == nodes

    @pytest.mark.parametrize(
        "spec",
        [
            "mesh:4x4",
            "torus:4x4",
            "ring:banana",
            "ring:",
            "16",
            "torus2d:2x2x2",
            # One spelling per fabric: no bare shape, alias, case, padding
            # or leading zero.
            "4x2x2",
            "fully_connected:16",
            "FC:16",
            " fc:16 ",
            "fc:016",
        ],
    )
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(TopologyError):
            topology_from_spec(spec)
