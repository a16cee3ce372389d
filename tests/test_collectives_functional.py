"""Functional correctness of the collective algorithms (numpy oracles)."""

import numpy as np
import pytest

import oracles
from oracles import (
    direct_all_to_all,
    double_binary_tree_all_reduce,
    halving_doubling_all_reduce,
    ring_all_gather,
    ring_all_reduce,
    ring_reduce_scatter,
)
from repro.errors import CollectiveError


def _node_data(num_nodes, elements, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=elements) for _ in range(num_nodes)]


class TestOracles:
    def test_all_reduce_is_sum(self):
        data = _node_data(4, 8)
        out = oracles.all_reduce(data)
        expected = np.sum(np.stack(data), axis=0)
        for node_result in out:
            np.testing.assert_allclose(node_result, expected)

    def test_reduce_scatter_shards_the_sum(self):
        data = _node_data(4, 16)
        shards = oracles.reduce_scatter(data)
        total = np.sum(np.stack(data), axis=0)
        reconstructed = np.concatenate(shards)
        np.testing.assert_allclose(reconstructed, total)

    def test_all_gather_concatenates(self):
        shards = [np.full(4, i, dtype=float) for i in range(3)]
        out = oracles.all_gather(shards)
        expected = np.concatenate(shards)
        for node_result in out:
            np.testing.assert_allclose(node_result, expected)

    def test_all_to_all_transposes_shards(self):
        num_nodes = 4
        data = [np.arange(num_nodes) + 10 * node for node in range(num_nodes)]
        out = oracles.all_to_all(data)
        for dst in range(num_nodes):
            expected = np.array([10 * src + dst for src in range(num_nodes)], dtype=float)
            np.testing.assert_allclose(out[dst], expected)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(CollectiveError):
            oracles.all_reduce([np.zeros(4), np.zeros(5)])

    def test_indivisible_length_rejected(self):
        with pytest.raises(CollectiveError):
            oracles.reduce_scatter([np.zeros(5), np.zeros(5), np.zeros(5)])


class TestRingAlgorithms:
    @pytest.mark.parametrize("num_nodes", [2, 3, 4, 6, 8])
    def test_ring_reduce_scatter_matches_oracle(self, num_nodes):
        data = _node_data(num_nodes, num_nodes * 4, seed=num_nodes)
        mine = ring_reduce_scatter(data)
        oracle = oracles.reduce_scatter(data)
        # Ring RS leaves node i with shard (i+1) mod n.
        for node in range(num_nodes):
            np.testing.assert_allclose(mine[node], oracle[(node + 1) % num_nodes])

    @pytest.mark.parametrize("num_nodes", [2, 3, 4, 5, 8])
    def test_ring_all_reduce_matches_oracle(self, num_nodes):
        data = _node_data(num_nodes, num_nodes * 3, seed=num_nodes + 100)
        mine = ring_all_reduce(data)
        expected = np.sum(np.stack(data), axis=0)
        for node_result in mine:
            np.testing.assert_allclose(node_result, expected)

    def test_ring_all_gather(self):
        shards = [np.full(2, i, dtype=float) for i in range(4)]
        out = ring_all_gather(shards, owner_offset=0)
        expected = np.concatenate(shards)
        for node_result in out:
            np.testing.assert_allclose(node_result, expected)

    def test_single_node_rejected(self):
        with pytest.raises(CollectiveError):
            ring_all_reduce([np.zeros(4)])


class TestOtherAlgorithms:
    @pytest.mark.parametrize("num_nodes", [2, 4, 8, 16])
    def test_halving_doubling_all_reduce(self, num_nodes):
        data = _node_data(num_nodes, 16, seed=num_nodes)
        out = halving_doubling_all_reduce(data)
        expected = np.sum(np.stack(data), axis=0)
        for node_result in out:
            np.testing.assert_allclose(node_result, expected)

    def test_halving_doubling_requires_power_of_two(self):
        with pytest.raises(CollectiveError):
            halving_doubling_all_reduce(_node_data(6, 8))

    @pytest.mark.parametrize("num_nodes", [2, 3, 4, 7, 8])
    def test_double_binary_tree_all_reduce(self, num_nodes):
        data = _node_data(num_nodes, 8, seed=num_nodes + 7)
        out = double_binary_tree_all_reduce(data)
        expected = np.sum(np.stack(data), axis=0)
        for node_result in out:
            np.testing.assert_allclose(node_result, expected)

    @pytest.mark.parametrize("num_nodes", [2, 4, 8])
    def test_direct_all_to_all_matches_oracle(self, num_nodes):
        data = _node_data(num_nodes, num_nodes * 2, seed=3)
        mine = direct_all_to_all(data)
        oracle = oracles.all_to_all(data)
        for a, b in zip(mine, oracle):
            np.testing.assert_allclose(a, b)
