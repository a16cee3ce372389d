"""Table-driven planner: capability predicates, auto-selection, cache identity."""

import pytest

from oracles import feasible_algorithms
from repro.collectives.planner import (
    algorithms,
    clear_plan_cache,
    estimate_plan_cost,
    plan_collective,
)
from repro.config.system import NetworkConfig
from repro.errors import CollectiveError
from repro.network.topology import (
    FullyConnected,
    RingTopology,
    SwitchTopology,
    Torus2D,
    Torus3D,
)


class TestRegistry:
    def test_all_algorithms_registered(self):
        assert set(algorithms()) == {
            "hierarchical",
            "direct",
            "ring",
            "tree",
            "halving_doubling",
            "p2p",
        }

    def test_paper_algorithms_registered_first(self):
        # Tie-break order in auto-selection: the paper's choices come first.
        assert algorithms()[:2] == ("hierarchical", "direct")

    def test_capabilities_on_torus(self, torus_444):
        assert feasible_algorithms("all_reduce", torus_444) == ["hierarchical", "ring"]
        with pytest.raises(CollectiveError, match="requires a single-hop fabric"):
            plan_collective("all_reduce", torus_444, algorithm="tree")
        with pytest.raises(CollectiveError, match="does not implement all_reduce"):
            plan_collective("all_reduce", torus_444, algorithm="direct")

    def test_supported_algorithms_on_switch(self):
        assert feasible_algorithms("all_reduce", SwitchTopology(16)) == [
            "ring",
            "tree",
            "halving_doubling",
        ]

    def test_halving_doubling_needs_power_of_two(self):
        with pytest.raises(CollectiveError, match="power-of-two"):
            plan_collective("all_reduce", SwitchTopology(12), algorithm="halving_doubling")
        assert feasible_algorithms("all_reduce", SwitchTopology(12)) == ["ring", "tree"]


class TestExplicitSelection:
    def test_explicit_hierarchical_matches_default(self, torus_444):
        assert plan_collective(
            "all_reduce", torus_444, algorithm="hierarchical"
        ) is plan_collective("all_reduce", torus_444)

    def test_explicit_ring_on_torus_charges_bottleneck_dimension(self, torus_444):
        plan = plan_collective("all_reduce", torus_444, algorithm="ring")
        assert len(plan.phases) == 1
        assert plan.phases[0].dimension in ("vertical", "horizontal")
        assert plan.phases[0].ring_size == 64

    def test_unknown_algorithm_name(self, torus_444):
        with pytest.raises(CollectiveError, match="unknown collective algorithm"):
            plan_collective("all_reduce", torus_444, algorithm="bruck")

    def test_unsupported_pairing_topology(self):
        with pytest.raises(CollectiveError, match="hierarchical"):
            plan_collective("all_reduce", SwitchTopology(16), algorithm="hierarchical")

    def test_unsupported_pairing_op(self, torus_444):
        with pytest.raises(CollectiveError, match="does not implement"):
            plan_collective("all_to_all", torus_444, algorithm="tree")

    def test_unsupported_op_name(self, torus_444):
        with pytest.raises(CollectiveError, match="unknown collective operation"):
            plan_collective("broadcast", torus_444, algorithm="hierarchical")

    def test_non_topology_rejected(self):
        with pytest.raises(CollectiveError, match="Topology"):
            plan_collective("all_reduce", 16)


class TestAutoSelection:
    def test_auto_picks_hierarchical_on_every_paper_torus(self):
        for shape in ((4, 2, 1), (4, 2, 2), (4, 4, 2), (4, 4, 4), (4, 8, 4), (4, 8, 8)):
            topology = Torus3D(*shape)
            auto = plan_collective("all_reduce", topology)
            hier = plan_collective("all_reduce", topology, algorithm="hierarchical")
            assert auto is hier, f"auto did not pick hierarchical on {topology.name}"

    def test_auto_picks_direct_all_to_all_on_torus(self, torus_444):
        auto = plan_collective("all_to_all", torus_444)
        assert auto is plan_collective("all_to_all", torus_444, algorithm="direct")

    def test_auto_beats_or_matches_every_explicit_choice(self, torus_444):
        auto_cost = estimate_plan_cost(plan_collective("all_reduce", torus_444))
        for name in feasible_algorithms("all_reduce", torus_444):
            explicit = plan_collective("all_reduce", torus_444, algorithm=name)
            assert auto_cost <= estimate_plan_cost(explicit) + 1e-9

    def test_auto_on_large_switch_prefers_logarithmic(self):
        plan = plan_collective("all_reduce", SwitchTopology(64))
        # Halving-doubling: same bytes as ring, log(n) instead of 2(n-1) steps.
        assert plan.phases[0].steps == 6

    def test_no_feasible_algorithm_is_a_clear_error(self):
        with pytest.raises(CollectiveError, match="no registered algorithm"):
            plan_collective("all_to_all", RingTopology(8))

    def test_network_parameter_influences_cost_not_crash(self, torus_444):
        slow_local = NetworkConfig(intra_package_link_bandwidth_gbps=1.0)
        plan = plan_collective("all_reduce", torus_444, network=slow_local)
        assert plan.num_nodes == 64

    def test_ring_bottleneck_dimension_follows_the_costed_network(self, torus_444):
        # Default Table V provisioning: inter-package links are the bottleneck.
        default = plan_collective("all_reduce", torus_444, algorithm="ring")
        assert default.phases[0].dimension in ("vertical", "horizontal")
        # Invert the provisioning: now the local ring is slowest and the flat
        # ring must be charged to it instead.
        slow_local = NetworkConfig(intra_package_link_bandwidth_gbps=5.0)
        inverted = plan_collective(
            "all_reduce", torus_444, algorithm="ring", network=slow_local
        )
        assert inverted.phases[0].dimension == "local"

    def test_algorithm_implements(self):
        from repro.collectives.planner import algorithm_implements

        assert algorithm_implements("hierarchical", "all_reduce")
        assert not algorithm_implements("hierarchical", "all_to_all")
        with pytest.raises(CollectiveError, match="unknown collective algorithm"):
            algorithm_implements("bruck", "all_reduce")


class TestPlanCache:
    def test_same_shape_same_class_shares_plan(self):
        a = plan_collective("all_reduce", Torus3D(4, 2, 2))
        b = plan_collective("all_reduce", Torus3D(4, 2, 2))
        assert a is b

    def test_torus2d_shares_cache_with_degenerate_torus3d(self):
        # Torus2D(V, H) is behaviourally Torus3D(1, V, H); they share plans.
        a = plan_collective("all_reduce", Torus2D(4, 4))
        b = plan_collective("all_reduce", Torus3D(1, 4, 4))
        assert a is b

    def test_topologies_sharing_a_node_count_do_not_collide(self):
        # Ring(16) and Switch(16) have the same "shape" (16 nodes) but must
        # cache distinct ring plans: traffic rides different dimensions.
        ring_plan = plan_collective("all_reduce", RingTopology(16), algorithm="ring")
        switch_plan = plan_collective("all_reduce", SwitchTopology(16), algorithm="ring")
        fc_plan = plan_collective("all_reduce", FullyConnected(16), algorithm="ring")
        assert ring_plan is not switch_plan
        assert switch_plan is not fc_plan
        assert ring_plan.phases[0].dimension == "local"
        assert switch_plan.phases[0].dimension == "switch"
        assert fc_plan.phases[0].dimension == "direct"

    def test_clear_plan_cache_resets_identity_not_value(self, torus_422):
        a = plan_collective("all_reduce", torus_422)
        clear_plan_cache()
        b = plan_collective("all_reduce", torus_422)
        assert a is not b
        assert a == b


class TestCostModel:
    def test_cost_positive_and_scales_with_payload(self, torus_444):
        plan = plan_collective("all_reduce", torus_444)
        small = estimate_plan_cost(plan, payload_bytes=1024)
        large = estimate_plan_cost(plan, payload_bytes=1024 * 1024)
        assert 0 < small < large

    def test_hierarchical_cheaper_than_flat_ring_on_torus(self, torus_444):
        hier = plan_collective("all_reduce", torus_444, algorithm="hierarchical")
        ring = plan_collective("all_reduce", torus_444, algorithm="ring")
        assert estimate_plan_cost(hier) < estimate_plan_cost(ring)


class TestRegistrationInvalidation:
    def test_single_hop_all_to_all_rejects_multi_hop_fabrics(self):
        from repro.collectives.alltoall import single_hop_all_to_all_plan

        with pytest.raises(CollectiveError, match="one\\s?hop"):
            single_hop_all_to_all_plan(RingTopology(16))
