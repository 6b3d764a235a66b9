"""k-GNN set graphs: the array versions equal the reference loops exactly.

``build_triple_graph`` and ``_edges_by_shared_members`` enumerate subsets
with array operations; the loops below are the original definition and
stay here as the reference.  Members, the ``max_triples`` cut (every
triple of the edge that reaches the cap is kept), the lexicographic
``(src, dst)`` edge order and int64 dtypes must all match.
"""

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.proteins import load_proteins
from repro.graph import Graph
from repro.models import kgnn


def reference_edges(members, shared=None):
    k = members.shape[1]
    subset_size = shared if shared is not None else k - 1
    buckets = {}
    for set_id, row in enumerate(members):
        for sub in combinations(row.tolist(), subset_size):
            buckets.setdefault(sub, []).append(set_id)
    src, dst = [], []
    for ids in buckets.values():
        if len(ids) < 2:
            continue
        arr = np.asarray(ids, dtype=np.int64)
        grid_a = np.repeat(arr, arr.size)
        grid_b = np.tile(arr, arr.size)
        keep = grid_a != grid_b
        src.append(grid_a[keep])
        dst.append(grid_b[keep])
    if not src:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    pairs = np.unique(np.stack([np.concatenate(src), np.concatenate(dst)],
                               axis=1), axis=0)
    return pairs[:, 0], pairs[:, 1]


def reference_triples(graph, max_triples=4000):
    csr = graph.csr()
    triples = set()
    mask = graph.src < graph.dst
    for a, b in zip(graph.src[mask], graph.dst[mask]):
        for c in csr.indices[csr.indptr[b]: csr.indptr[b + 1]]:
            if c != a and c != b:
                triples.add(tuple(sorted((int(a), int(b), int(c)))))
        for c in csr.indices[csr.indptr[a]: csr.indptr[a + 1]]:
            if c != a and c != b:
                triples.add(tuple(sorted((int(a), int(b), int(c)))))
        if len(triples) >= max_triples:
            break
    if not triples:
        return (np.empty((0, 3), np.int64), np.empty(0, np.int64),
                np.empty(0, np.int64))
    members = np.array(sorted(triples), dtype=np.int64)
    return (members, *reference_edges(members, shared=2))


def assert_identical(got, want):
    for g, w in zip(got, want):
        assert g.dtype == np.int64 and w.dtype == np.int64
        assert g.shape == w.shape
        assert np.array_equal(g, w)


def assert_matches_reference(graph, max_triples):
    sg = kgnn.build_triple_graph(graph, max_triples)
    assert_identical((sg.members, sg.edge_src, sg.edge_dst),
                     reference_triples(graph, max_triples))
    pairs = kgnn.build_pair_graph(graph)
    assert_identical((pairs.edge_src, pairs.edge_dst),
                     reference_edges(pairs.members))


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 14))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=40))
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    graph = Graph(src, dst, num_nodes=n)
    return graph.to_undirected() if draw(st.booleans()) else graph


@settings(max_examples=150, deadline=None)
@given(graph=graphs(), max_triples=st.one_of(st.integers(0, 40),
                                            st.just(4000)))
def test_random_graphs_match_reference(graph, max_triples):
    assert_matches_reference(graph, max_triples)


def test_protein_graphs_match_reference_at_and_below_the_cap():
    capped = 0
    for graph in load_proteins(32, seed=0).graphs:
        for max_triples in (4000, 60, 1):
            assert_matches_reference(graph, max_triples)
        capped += (kgnn.build_triple_graph(graph, 60).num_sets
                   < kgnn.build_triple_graph(graph).num_sets)
    assert capped  # the cut is exercised, not just the uncapped path
