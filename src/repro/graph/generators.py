"""Synthetic graph generators.

Deterministic (seeded) generators covering the topology families of the
paper's datasets: community-structured citation graphs (SBM), heavy-tailed
interaction graphs (preferential attachment), bipartite user-item graphs,
road/sensor networks, small molecules, and sentence trees.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, sorted_unique, unique_pairs


def erdos_renyi(num_nodes: int, avg_degree: float, rng: np.random.Generator) -> Graph:
    """G(n, p) with p chosen for the requested mean out-degree."""
    num_edges = int(num_nodes * avg_degree)
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    keep = src != dst
    return Graph(src[keep], dst[keep], num_nodes=num_nodes)


def stochastic_block_model(
    block_sizes: list[int],
    p_in: float,
    p_out: float,
    rng: np.random.Generator,
) -> tuple[Graph, np.ndarray]:
    """SBM with dense intra-block / sparse inter-block connectivity.

    Returns (graph, block labels).  Sampling is done per block pair with a
    binomial edge count to stay O(edges) rather than O(n^2).
    """
    sizes = np.asarray(block_sizes)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n = int(offsets[-1])
    labels = np.repeat(np.arange(len(sizes)), sizes)
    srcs, dsts = [], []
    for i in range(len(sizes)):
        for j in range(len(sizes)):
            p = p_in if i == j else p_out
            possible = int(sizes[i]) * int(sizes[j])
            count = rng.binomial(possible, min(1.0, p))
            if count == 0:
                continue
            src = rng.integers(offsets[i], offsets[i + 1], size=count)
            dst = rng.integers(offsets[j], offsets[j + 1], size=count)
            keep = src != dst
            srcs.append(src[keep])
            dsts.append(dst[keep])
    src = np.concatenate(srcs) if srcs else np.empty(0, np.int64)
    dst = np.concatenate(dsts) if dsts else np.empty(0, np.int64)
    graph = Graph(*unique_pairs(src, dst, n), num_nodes=n).to_undirected()
    return graph, labels


def preferential_attachment(
    num_nodes: int, edges_per_node: int, rng: np.random.Generator
) -> Graph:
    """Barabási–Albert-style heavy-tailed degree distribution."""
    m = edges_per_node
    targets = list(range(m))
    repeated: list[int] = list(range(m))
    src, dst = [], []
    for node in range(m, num_nodes):
        chosen = rng.choice(repeated, size=m, replace=False) if len(repeated) >= m \
            else rng.integers(0, node, size=m)
        for t in sorted_unique(chosen):
            src.append(node)
            dst.append(int(t))
            repeated.extend([node, int(t)])
    return Graph(np.array(src), np.array(dst), num_nodes=num_nodes).to_undirected()


def bipartite_interactions(
    num_users: int,
    num_items: int,
    num_interactions: int,
    rng: np.random.Generator,
    item_popularity_skew: float = 1.2,
) -> tuple[np.ndarray, np.ndarray]:
    """User-item interaction pairs with Zipfian item popularity."""
    ranks = np.arange(1, num_items + 1, dtype=np.float64)
    probs = ranks ** (-item_popularity_skew)
    probs /= probs.sum()
    users = rng.integers(0, num_users, size=num_interactions)
    items = rng.choice(num_items, size=num_interactions, p=probs)
    return unique_pairs(users, items, num_items)


def sensor_network(
    num_sensors: int, k_nearest: int, rng: np.random.Generator
) -> tuple[Graph, np.ndarray]:
    """Road-sensor-style graph: random 2D points, k-nearest-neighbor edges,
    Gaussian-kernel edge weights (the METR-LA adjacency construction)."""
    points = rng.random((num_sensors, 2))
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    nearest = np.argsort(d2, axis=1)[:, :k_nearest]
    src = np.repeat(np.arange(num_sensors), k_nearest)
    dst = nearest.reshape(-1)
    dist = np.sqrt(d2[src, dst])
    sigma = dist.std() + 1e-8
    weights = np.exp(-(dist ** 2) / (sigma ** 2)).astype(np.float32)
    graph = Graph(src, dst, num_nodes=num_sensors, edge_weight=weights)
    return graph, points


def random_molecule(
    rng: np.random.Generator, min_atoms: int = 8, max_atoms: int = 32
) -> Graph:
    """A small-molecule-like graph: a random tree plus a few ring closures."""
    n = int(rng.integers(min_atoms, max_atoms + 1))
    parents = np.array([int(rng.integers(0, i)) for i in range(1, n)])
    src = np.arange(1, n)
    dst = parents
    extra = max(0, int(rng.poisson(n * 0.15)))
    if extra:
        a = rng.integers(0, n, size=extra)
        b = rng.integers(0, n, size=extra)
        keep = a != b
        src = np.concatenate([src, a[keep]])
        dst = np.concatenate([dst, b[keep]])
    return Graph(src, dst, num_nodes=n).to_undirected()


def random_binary_tree(num_leaves: int, rng: np.random.Generator
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A random binary parse tree over ``num_leaves`` tokens.

    Returns (parent, left_child_mask, is_leaf): arrays over 2*num_leaves - 1
    nodes where internal node i has exactly two children.  Built bottom-up by
    repeatedly merging two random adjacent forest roots (like a random
    binarized constituency parse).
    """
    total = 2 * num_leaves - 1
    parent = -np.ones(total, dtype=np.int64)
    is_leaf = np.zeros(total, dtype=bool)
    is_leaf[:num_leaves] = True
    roots = list(range(num_leaves))
    next_id = num_leaves
    while len(roots) > 1:
        i = int(rng.integers(0, len(roots) - 1))
        left, right = roots[i], roots[i + 1]
        parent[left] = next_id
        parent[right] = next_id
        roots[i : i + 2] = [next_id]
        next_id += 1
    left_mask = np.zeros(total, dtype=bool)
    return parent, left_mask, is_leaf
