"""Collective performance plans (phase/byte accounting)."""

import numpy as np
import pytest

from repro.collectives.alltoall import direct_all_to_all_plan
from repro.collectives.base import CollectiveOp, PhaseSpec
from repro.collectives.halving_doubling import halving_doubling_plan
from repro.collectives.hierarchical import (
    hierarchical_all_gather_plan,
    hierarchical_all_reduce_plan,
    hierarchical_reduce_scatter_plan,
)
from repro.collectives.planner import clear_plan_cache, plan_collective
from repro.collectives.ring import (
    ring_all_gather_phase,
    ring_all_reduce_phase,
    ring_reduce_scatter_phase,
)
from repro.collectives.tree import double_binary_tree_plan
from repro.errors import CollectiveError
from repro.network.topology import Torus3D


class TestRingPhases:
    def test_reduce_scatter_phase_fractions(self):
        phase = ring_reduce_scatter_phase("local", 4, 1.0)
        assert phase.bytes_sent_fraction == pytest.approx(0.75)
        assert phase.reduced_bytes_fraction == pytest.approx(0.75)
        assert phase.resident_fraction_out == pytest.approx(0.25)
        assert phase.steps == 3

    def test_all_gather_phase_fractions(self):
        phase = ring_all_gather_phase("local", 4, 0.25)
        assert phase.bytes_sent_fraction == pytest.approx(0.75)
        assert phase.reduced_bytes_fraction == 0.0
        assert phase.resident_fraction_out == pytest.approx(1.0)

    def test_all_reduce_phase_fractions(self):
        phase = ring_all_reduce_phase("vertical", 4, 0.25)
        assert phase.bytes_sent_fraction == pytest.approx(2 * 0.25 * 0.75)
        assert phase.reduced_bytes_fraction == pytest.approx(0.25 * 0.75)
        assert phase.steps == 6
        assert phase.resident_fraction_out == pytest.approx(0.25)

    def test_invalid_phase_spec(self):
        with pytest.raises(CollectiveError):
            PhaseSpec("local", "all_reduce", 0, 1, 0.1, 0.1, 1.0, 1.0)
        with pytest.raises(CollectiveError):
            PhaseSpec("local", "all_reduce", 4, 1, -0.1, 0.1, 1.0, 1.0)


class TestHierarchicalAllReduce:
    def test_4x4x4_matches_section6a(self, torus_444):
        plan = hierarchical_all_reduce_plan(torus_444)
        assert len(plan.phases) == 4
        fractions = [p.bytes_sent_fraction for p in plan.phases]
        assert fractions == pytest.approx([0.75, 6 / 16, 6 / 16, 0.75])
        # Total injected bytes per payload byte: 2.25 (Section VI-A).
        assert plan.total_injected_fraction == pytest.approx(2.25)

    def test_phase_order_local_vertical_horizontal_local(self, torus_444):
        plan = hierarchical_all_reduce_plan(torus_444)
        assert [p.dimension for p in plan.phases] == [
            "local",
            "vertical",
            "horizontal",
            "local",
        ]
        assert [p.kind for p in plan.phases] == [
            "reduce_scatter",
            "all_reduce",
            "all_reduce",
            "all_gather",
        ]

    def test_sequential_stages(self, torus_444):
        plan = hierarchical_all_reduce_plan(torus_444)
        assert len(plan.stages()) == 4
        groups = [p.parallel_group for p in plan.phases]
        assert groups == sorted(groups)

    def test_degenerate_dimensions_skipped(self):
        plan = hierarchical_all_reduce_plan(Torus3D(8, 1, 1))
        assert [p.dimension for p in plan.phases] == ["local", "local"]
        assert plan.total_injected_fraction == pytest.approx(2 * 7 / 8)

    def test_128_npu_plan(self):
        plan = hierarchical_all_reduce_plan(Torus3D(4, 8, 4))
        assert plan.total_injected_fraction == pytest.approx(
            0.75 + 2 * (7 / 8) / 4 + 2 * (3 / 4) / 4 + 0.75
        )

    def test_resident_fraction_is_continuous(self, torus_444):
        plan = hierarchical_all_reduce_plan(torus_444)
        resident = 1.0
        for phase in plan.phases:
            assert phase.resident_fraction_in == pytest.approx(resident)
            resident = phase.resident_fraction_out
        assert resident == pytest.approx(1.0)

    def test_reduce_scatter_and_all_gather_plans(self, torus_444):
        rs = hierarchical_reduce_scatter_plan(torus_444)
        ag = hierarchical_all_gather_plan(torus_444)
        assert rs.phases[-1].resident_fraction_out == pytest.approx(1 / 64)
        assert ag.phases[-1].resident_fraction_out == pytest.approx(1.0)


class TestAllToAllPlan:
    def test_phases_are_parallel(self, torus_444):
        plan = direct_all_to_all_plan(torus_444)
        assert plan.op is CollectiveOp.ALL_TO_ALL
        assert len(plan.stages()) == 1
        assert {p.dimension for p in plan.phases} == {"local", "vertical", "horizontal"}

    def test_forwarded_traffic_on_multi_hop_rings(self, torus_444):
        plan = direct_all_to_all_plan(torus_444)
        # Rings of size 4 force some 2-hop routes, so forwarding is non-zero.
        assert sum(p.forwarded_bytes_fraction for p in plan.phases) > 0.0

    def test_small_torus_forwards_less_than_large(self, torus_222, torus_444):
        small = direct_all_to_all_plan(torus_222)
        large = direct_all_to_all_plan(torus_444)
        # Multi-hop XYZ routes force intermediate NPUs to forward traffic; the
        # effect grows with ring sizes / hop counts.
        small_forwarded = sum(p.forwarded_bytes_fraction for p in small.phases)
        large_forwarded = sum(p.forwarded_bytes_fraction for p in large.phases)
        assert 0.0 <= small_forwarded < large_forwarded

    def test_total_link_load_reasonable(self, torus_444):
        plan = direct_all_to_all_plan(torus_444)
        # Each NPU originates (P-1)/P of the payload; link load exceeds that
        # because of multi-hop forwarding.
        assert plan.total_injected_fraction >= (63 / 64) - 1e-9


class TestOtherPlans:
    def test_halving_doubling_plan(self):
        plan = halving_doubling_plan("local", 8)
        assert plan.total_injected_fraction == pytest.approx(2 * 7 / 8)
        assert plan.phases[0].steps == 3

    def test_halving_doubling_plan_rejects_non_power_of_two(self):
        with pytest.raises(CollectiveError):
            halving_doubling_plan("local", 6)

    def test_double_binary_tree_plan(self):
        plan = double_binary_tree_plan("local", 8)
        assert len(plan.phases) == 2
        assert plan.phases[0].steps == 3


    def test_integer_step_counts_match_float_logs(self):
        """The plan builders count steps with integer bit lengths; they agree
        with the float ``log2`` forms for every size up to 4096."""
        for n in range(2, 4097):
            tree = double_binary_tree_plan("switch", n)
            assert [p.steps for p in tree.phases] == [int(np.ceil(np.log2(n)))] * 2, n
            if n & (n - 1) == 0:
                hd = halving_doubling_plan("switch", n)
                assert [p.steps for p in hd.phases] == [int(np.log2(n))] * 2, n


class TestPlanner:
    @pytest.mark.parametrize("op", list(CollectiveOp))
    def test_planner_returns_plan_for_every_op(self, op, torus_422):
        plan = plan_collective(op, torus_422)
        assert plan.op is op
        assert plan.num_nodes == 16

    def test_planner_caches(self, torus_422):
        a = plan_collective("all_reduce", torus_422)
        b = plan_collective("all_reduce", Torus3D(4, 2, 2))
        assert a is b
        clear_plan_cache()
        c = plan_collective("all_reduce", torus_422)
        assert c == a

    def test_unknown_op_rejected(self, torus_422):
        with pytest.raises(CollectiveError):
            plan_collective("broadcast", torus_422)

    def test_plan_describe_and_helpers(self, torus_444):
        plan = plan_collective("all_reduce", torus_444)
        per_dim = plan.per_dimension_injected_fraction()
        assert per_dim["local"] == pytest.approx(1.5)
        assert 100.0 * plan.total_injected_fraction == pytest.approx(225.0)
