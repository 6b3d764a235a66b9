"""Graph batching and sampling (neighbor blocks, random walks, PinSAGE)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import OpClass, SimulatedGPU
from repro.graph import (
    Graph,
    batch_graphs,
    generators,
    pinsage_neighbors,
    random_walks,
    unbatch,
    uniform_neighbor_block,
)


def _graphs(seed, count=4):
    rng = np.random.default_rng(seed)
    return [generators.random_molecule(rng) for _ in range(count)]


class TestBatching:
    def test_block_diagonal_counts(self):
        gs = _graphs(0)
        b = batch_graphs(gs)
        assert b.graph.num_nodes == sum(g.num_nodes for g in gs)
        assert b.graph.num_edges == sum(g.num_edges for g in gs)
        assert b.num_graphs == len(gs)

    def test_graph_ids_align_with_offsets(self):
        b = batch_graphs(_graphs(1))
        for i in range(b.num_graphs):
            nodes = b.nodes_of(i)
            assert np.all(b.graph_ids[nodes] == i)

    def test_edges_never_cross_graphs(self):
        b = batch_graphs(_graphs(2))
        assert np.all(b.graph_ids[b.graph.src] == b.graph_ids[b.graph.dst])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            batch_graphs([])

    @given(st.integers(1, 6), st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_unbatch_roundtrip(self, count, seed):
        rng = np.random.default_rng(seed)
        gs = [generators.random_molecule(rng) for _ in range(count)]
        out = unbatch(batch_graphs(gs))
        assert len(out) == count
        for orig, back in zip(gs, out):
            assert back.num_nodes == orig.num_nodes
            assert back.num_edges == orig.num_edges
            orig_pairs = set(zip(orig.src.tolist(), orig.dst.tolist()))
            back_pairs = set(zip(back.src.tolist(), back.dst.tolist()))
            assert orig_pairs == back_pairs


class TestNeighborSampling:
    def _graph(self):
        g, _ = generators.stochastic_block_model([30, 30], 0.2, 0.02,
                                                 np.random.default_rng(0))
        return g

    def test_seeds_lead_the_block(self, rng):
        g = self._graph()
        seeds = np.array([3, 7, 11])
        block = uniform_neighbor_block(g, seeds, fanout=4, rng=rng)
        np.testing.assert_array_equal(block.src_nodes[:3], seeds)
        assert block.num_dst == 3

    def test_fanout_respected(self, rng):
        g = self._graph()
        block = uniform_neighbor_block(g, np.array([0, 1]), fanout=3, rng=rng)
        counts = np.bincount(block.edge_dst, minlength=2)
        assert np.all(counts <= 3)

    def test_edges_reference_valid_locals(self, rng):
        g = self._graph()
        block = uniform_neighbor_block(g, np.array([0, 5, 9]), fanout=5, rng=rng)
        assert np.all(block.edge_src < block.num_src)
        assert np.all(block.edge_dst < block.num_dst)

    def test_sampled_edges_exist_in_graph(self, rng):
        g = self._graph()
        seeds = np.array([2, 4])
        block = uniform_neighbor_block(g, seeds, fanout=4, rng=rng)
        edges = set(zip(g.src.tolist(), g.dst.tolist()))
        for s_local, d_local in zip(block.edge_src, block.edge_dst):
            src = int(block.src_nodes[s_local])
            dst = int(block.dst_nodes[d_local])
            assert (src, dst) in edges

    def test_device_sampling_emits_sorts(self, rng):
        gpu = SimulatedGPU()
        with gpu.observe() as window:
            uniform_neighbor_block(self._graph(), np.array([0, 1]), 4, rng,
                                   device=gpu)
        ops = [e[3].op_class for e in window.entries() if e[0] == "K"]
        assert OpClass.SORT in ops

    def test_isolated_seeds_keep_dst_slots(self, rng):
        # regression: zero-degree seeds contribute no edges but must keep
        # their dst position so gather/scatter alignment survives — the
        # per-seed loop skipped them silently, the vectorized path must not
        g = Graph(np.array([1, 2, 2]), np.array([0, 0, 1]), num_nodes=6)
        seeds = np.array([3, 0, 5, 1])  # 3 and 5 are isolated
        block = uniform_neighbor_block(g, seeds, fanout=2, rng=rng)
        np.testing.assert_array_equal(block.dst_nodes, seeds)
        np.testing.assert_array_equal(block.src_nodes[: seeds.size], seeds)
        # only the connected seeds (local slots 1 and 3) receive edges
        assert set(block.edge_dst.tolist()) <= {1, 3}
        counts = np.bincount(block.edge_dst, minlength=seeds.size)
        assert counts[0] == 0 and counts[2] == 0
        assert counts[1] == 2 and counts[3] == 1  # deg(0)=2, deg(1)=1

    def test_all_isolated_seeds_yield_empty_edges(self, rng):
        g = Graph(np.array([1]), np.array([0]), num_nodes=8)
        seeds = np.array([4, 6, 7])
        block = uniform_neighbor_block(g, seeds, fanout=3, rng=rng)
        assert block.edge_src.size == 0 and block.edge_dst.size == 0
        np.testing.assert_array_equal(block.dst_nodes, seeds)
        np.testing.assert_array_equal(block.src_nodes[: seeds.size], seeds)

    def test_without_replacement_no_duplicate_edges(self, rng):
        g = self._graph()
        seeds = np.arange(20)
        block = uniform_neighbor_block(g, seeds, fanout=6, rng=rng)
        pairs = set()
        for s_local, d_local in zip(block.edge_src.tolist(),
                                    block.edge_dst.tolist()):
            assert (s_local, d_local) not in pairs
            pairs.add((s_local, d_local))


class TestRandomWalks:
    def test_shape_and_start(self, rng):
        g, _ = generators.stochastic_block_model([20, 20], 0.3, 0.05, rng)
        starts = np.array([0, 5, 10])
        walks = random_walks(g, starts, length=4, rng=rng)
        assert walks.shape == (3, 5)
        np.testing.assert_array_equal(walks[:, 0], starts)

    def test_steps_follow_edges(self, rng):
        g, _ = generators.stochastic_block_model([20, 20], 0.3, 0.05, rng)
        walks = random_walks(g, np.arange(10), length=3, rng=rng)
        edges = set(zip(g.dst.tolist(), g.src.tolist()))  # csr: in-neighbors
        for row in walks:
            for a, b in zip(row[:-1], row[1:]):
                assert a == b or (int(a), int(b)) in edges

    def test_isolated_node_stays_put(self, rng):
        g = Graph(np.array([0]), np.array([1]), num_nodes=5)
        walks = random_walks(g, np.array([4]), length=3, rng=rng)
        np.testing.assert_array_equal(walks[0], [4, 4, 4, 4])

    def test_restart_probability_one_pins_to_start(self, rng):
        g, _ = generators.stochastic_block_model([20], 0.4, 0.0, rng)
        walks = random_walks(g, np.array([3]), length=5, rng=rng,
                             restart_prob=1.0)
        np.testing.assert_array_equal(walks[0], 3)


class TestPinSAGESampling:
    def _graph(self):
        g, _ = generators.stochastic_block_model([40, 40], 0.25, 0.03,
                                                 np.random.default_rng(1))
        return g

    def test_weights_normalized_per_seed(self, rng):
        block = pinsage_neighbors(self._graph(), np.array([0, 1, 2]),
                                  num_walks=8, walk_length=2, top_t=4, rng=rng)
        for seed_local in range(3):
            w = block.edge_weight[block.edge_dst == seed_local]
            if w.size:
                assert w.sum() == pytest.approx(1.0, rel=1e-5)

    def test_top_t_respected(self, rng):
        block = pinsage_neighbors(self._graph(), np.array([0, 1]),
                                  num_walks=8, walk_length=2, top_t=3, rng=rng)
        counts = np.bincount(block.edge_dst, minlength=2)
        assert np.all(counts <= 3)

    def test_device_emits_visit_count_sort(self, rng):
        gpu = SimulatedGPU()
        with gpu.observe() as window:
            pinsage_neighbors(self._graph(), np.array([0, 1]), 8, 2, 3, rng,
                              device=gpu)
        names = [e[3].name for e in window.entries() if e[0] == "K"]
        assert "radix_sort_visit_counts" in names
        assert "radix_sort_block_edges" in names
