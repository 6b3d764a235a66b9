"""Hypothesis property suite for the neighbor loader.

Invariants the mini-batch pipeline rests on: every dst is a seed, per-seed
fanout bounds hold, blocks nest layer-to-layer, an epoch covers exactly a
permutation of the train ids, and everything replays byte-identically from
the ``[seed, epoch, batch_idx]`` spawn keys.  The filtered neighbor selection
picks exactly what a full ``lexsort`` of every candidate picks.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import Graph, generators, sampling, uniform_neighbor_block
from repro.graph.sampling import SampledBlock
from repro.train.loader import NeighborLoader


def _graph(seed):
    g, _ = generators.stochastic_block_model(
        [25, 25, 25], 0.15, 0.02, np.random.default_rng(seed))
    return g


graph_seeds = st.integers(0, 200)
fanout_lists = st.lists(st.integers(1, 8), min_size=1, max_size=3)


class TestBlockProperties:
    @given(graph_seeds, st.integers(1, 10), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_every_dst_is_a_seed(self, gseed, fanout, rseed):
        g = _graph(gseed)
        rng = np.random.default_rng(rseed)
        seeds = rng.choice(g.num_nodes, size=12, replace=False)
        block = uniform_neighbor_block(g, seeds, fanout, rng)
        np.testing.assert_array_equal(block.dst_nodes, seeds)
        np.testing.assert_array_equal(block.src_nodes[: seeds.size], seeds)
        # every edge destination indexes a seed slot
        assert np.all(block.edge_dst < seeds.size)

    @given(graph_seeds, st.integers(1, 10), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_fanout_bounds_respected(self, gseed, fanout, rseed):
        g = _graph(gseed)
        rng = np.random.default_rng(rseed)
        seeds = rng.choice(g.num_nodes, size=10, replace=False)
        block = uniform_neighbor_block(g, seeds, fanout, rng)
        counts = np.bincount(block.edge_dst, minlength=seeds.size)
        csr = g.csr()
        indptr = csr.indptr.astype(np.int64)
        deg = indptr[seeds + 1] - indptr[seeds]
        # exactly min(degree, fanout) neighbors drawn, without replacement
        np.testing.assert_array_equal(counts, np.minimum(deg, fanout))

    @given(graph_seeds, fanout_lists, st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_blocks_nest_layer_to_layer(self, gseed, fanouts, rseed):
        g = _graph(gseed)
        loader = NeighborLoader(g, np.arange(g.num_nodes), tuple(fanouts),
                                batch_size=8, seed=0)
        rng = np.random.default_rng(rseed)
        seeds = rng.choice(g.num_nodes, size=6, replace=False)
        blocks = loader.sample_blocks(seeds, rng)
        assert len(blocks) == len(fanouts)
        np.testing.assert_array_equal(blocks[-1].dst_nodes, seeds)
        for outer, inner in zip(blocks, blocks[1:]):
            np.testing.assert_array_equal(outer.dst_nodes, inner.src_nodes)
        for block in blocks:
            np.testing.assert_array_equal(
                block.src_nodes[: block.num_dst], block.dst_nodes)


class TestEpochProperties:
    @given(st.integers(10, 120), st.integers(1, 32), st.integers(0, 1000),
           st.integers(0, 5))
    @settings(max_examples=25, deadline=None)
    def test_epoch_coverage_is_permutation(self, n_ids, batch_size, seed,
                                           epoch):
        g = _graph(0)
        ids = np.sort(np.random.default_rng(seed).choice(
            g.num_nodes, size=min(n_ids, g.num_nodes), replace=False))
        loader = NeighborLoader(g, ids, (4,), batch_size, seed=seed)
        batches = loader.batches(epoch)
        assert len(batches) == loader.num_batches
        assert all(b.size <= batch_size for b in batches)
        np.testing.assert_array_equal(
            np.sort(np.concatenate(batches)), ids)

    @given(st.integers(0, 1000), st.integers(0, 3), st.integers(0, 5))
    @settings(max_examples=25, deadline=None)
    def test_batch_rng_replays_byte_identically(self, seed, epoch, batch):
        g = _graph(1)
        loader = NeighborLoader(g, np.arange(g.num_nodes), (5, 3), 16,
                                seed=seed)
        again = NeighborLoader(g, np.arange(g.num_nodes), (5, 3), 16,
                               seed=seed)
        seeds = loader.batches(epoch)[min(batch, loader.num_batches - 1)]
        a = loader.sample_blocks(seeds, loader.batch_rng(epoch, batch))
        b = again.sample_blocks(seeds, again.batch_rng(epoch, batch))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.src_nodes, y.src_nodes)
            np.testing.assert_array_equal(x.dst_nodes, y.dst_nodes)
            np.testing.assert_array_equal(x.edge_src, y.edge_src)
            np.testing.assert_array_equal(x.edge_dst, y.edge_dst)

    @given(st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_distinct_batch_indices_decorrelate(self, seed):
        g = _graph(2)
        loader = NeighborLoader(g, np.arange(g.num_nodes), (6,), 16,
                                seed=seed)
        seeds = loader.batches(0)[0]
        a = loader.sample_blocks(seeds, loader.batch_rng(0, 0))
        b = loader.sample_blocks(seeds, loader.batch_rng(0, 1))
        # same seeds, different spawn key: the draws should differ
        # (overwhelmingly; identical draws would signal a keying bug)
        assert (a[0].edge_src.size != b[0].edge_src.size
                or not np.array_equal(a[0].edge_src, b[0].edge_src))


def _reference_block(graph, seeds, fanout, rng):
    """The selection by one ``lexsort`` over every candidate edge."""
    seeds = np.asarray(seeds, dtype=np.int64)
    csr = graph.csr()
    indptr = csr.indptr.astype(np.int64)
    starts = indptr[seeds]
    deg = indptr[seeds + 1] - starts
    take = np.minimum(deg, fanout)
    total = int(deg.sum())
    seg = np.repeat(np.arange(seeds.size, dtype=np.int64), deg)
    seg_starts = np.concatenate(([0], np.cumsum(deg)[:-1]))
    keys = rng.random(total) if total else np.empty(0)
    order = np.lexsort((keys, seg))
    rank = np.arange(total, dtype=np.int64) - np.repeat(seg_starts, deg)
    sel = order[rank < np.repeat(take, deg)]
    picked = csr.indices[np.repeat(starts - seg_starts, deg)[sel] + sel]
    uniq, inverse = np.unique(np.concatenate([seeds, picked.astype(np.int64)]),
                              return_inverse=True)
    seed_pos = inverse[: seeds.size]
    order = np.concatenate([seed_pos, np.setdiff1d(np.arange(uniq.size), seed_pos)])
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[order] = np.arange(uniq.size)
    return SampledBlock(src_nodes=uniq[order].astype(np.int64), dst_nodes=seeds,
                        edge_src=rank[inverse[seeds.size:]], edge_dst=seg[sel])


def _mixed_graph(rng, num_nodes, fanout, hubs=True):
    """Node 0 isolated, node 1 a hub, node 2 short (degree <= fanout); the
    rest drawn from isolated, short, just-above-fanout and hub degrees.
    Without ``hubs`` every degree is capped at ``KEEP_FACTOR * fanout``, so
    the selection sorts every candidate unfiltered."""
    deg = rng.integers(1, fanout + 1, size=num_nodes)
    kind = rng.random(num_nodes)
    deg[kind < 0.15] = 0
    mid = (kind >= 0.15) & (kind < 0.35)
    deg[mid] = rng.integers(fanout + 1, 8 * fanout + 2, size=int(mid.sum()))
    big = kind >= 0.9
    deg[big] = rng.integers(30 * fanout, 60 * fanout, size=int(big.sum()))
    deg[:3] = (0, 60 * fanout, fanout)
    if not hubs:
        deg = np.minimum(deg, sampling.KEEP_FACTOR * fanout)
    dst = np.repeat(np.arange(num_nodes), deg)
    # duplicate draws collapse in the CSR: distinct sources keep hubs hubs
    src = np.concatenate([rng.choice(num_nodes, size=d, replace=False)
                          for d in deg])
    return Graph(src, dst, num_nodes=num_nodes)


def _assert_same_block(got, want):
    for name in ("src_nodes", "dst_nodes", "edge_src", "edge_dst"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def _check_against_reference(graph, seeds, fanout, rseed):
    got_rng = np.random.default_rng(rseed)
    want_rng = np.random.default_rng(rseed)
    got = uniform_neighbor_block(graph, seeds, fanout, got_rng)
    want = _reference_block(graph, seeds, fanout, want_rng)
    _assert_same_block(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestSelectionExactness:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8),
           st.one_of(st.integers(1, 200), st.integers(1025, 1300)),
           st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=30, deadline=None)
    @example(gseed=0, fanout=3, frontier=1100, rseed=1, hubs=True)
    @example(gseed=0, fanout=3, frontier=1100, rseed=1, hubs=False)
    def test_block_equals_full_lexsort(self, gseed, fanout, frontier, rseed,
                                       hubs):
        data = np.random.default_rng(gseed)
        num_nodes = max(frontier, 600) + 3
        g = _mixed_graph(data, num_nodes, fanout, hubs)
        rest = 3 + data.permutation(num_nodes - 3)[: max(frontier - 3, 0)]
        seeds = np.concatenate([[1, 0, 2], rest])[:frontier]
        _check_against_reference(g, seeds, fanout, rseed)

    def test_short_seed_falls_back_to_full_sort(self):
        # fanout 1 keeps each of a hub's 40 candidates with probability
        # 4/40: one of 600 hubs keeps none, and the call sorts everything
        fanout, hubs, deg, rseed = 1, 600, 40, 7
        data = np.random.default_rng(0)
        src = np.concatenate([data.choice(hubs, size=deg, replace=False)
                              for _ in range(hubs)])
        g = Graph(src, np.repeat(np.arange(hubs), deg), num_nodes=hubs)
        seeds = np.arange(hubs)
        keys = np.random.default_rng(rseed).random(hubs * deg)
        thresh = min(1.0, sampling.KEEP_FACTOR * fanout / deg)
        kept = (keys < thresh).reshape(hubs, deg).sum(axis=1)
        assert np.any(kept < fanout)
        _check_against_reference(g, seeds, fanout, rseed)
