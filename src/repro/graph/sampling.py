"""Graph sampling: uniform neighbor sampling and PinSAGE random walks.

The device-side post-processing that real pipelines run after sampling —
deduplicating node ids (sort + unique), compacting them, selecting top-T
important neighbors — emits SORT kernels when a device is supplied, which is
where the paper's large sorting share for PSAGE comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..tensor.ops import sort as sort_ops
from .graph import Graph
from .hetero import EdgeType, HeteroGraph


@dataclass
class SampledBlock:
    """One message-passing block from a sampled frontier.

    ``src_nodes`` are original graph ids providing input features;
    ``dst_nodes`` (a prefix of src_nodes) receive aggregated messages; the
    edges are in *local* block coordinates.
    """

    src_nodes: np.ndarray
    dst_nodes: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_weight: Optional[np.ndarray] = None

    @property
    def num_src(self) -> int:
        return int(self.src_nodes.size)

    @property
    def num_dst(self) -> int:
        return int(self.dst_nodes.size)


#: the pre-sort filter keeps a seed's candidates whose key is below
#: ``min(1, KEEP_FACTOR * fanout / degree)``: about ``KEEP_FACTOR * fanout``
#: of them, so a seed seldom keeps fewer than the ``fanout`` it needs
KEEP_FACTOR = 4


def uniform_neighbor_block(
    graph: Graph,
    seeds: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
    device=None,
) -> SampledBlock:
    """Sample up to ``fanout`` in-neighbors per seed (without replacement).

    Fully vectorized: one random key per candidate edge; each seed keeps its
    ``min(degree, fanout)`` smallest keys (:func:`_smallest_keys`) — a
    batched permutation draw with no per-seed Python loop.
    Isolated seeds (degree 0) contribute no edges but keep their dst slot:
    ``dst_nodes`` is always exactly ``seeds`` and ``src_nodes`` always starts
    with every seed, so downstream gather/scatter alignment survives.
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    csr = graph.csr()
    # O(seeds) reads: only the frontier's indptr entries are widened
    starts = csr.indptr[seeds].astype(np.int64)
    deg = csr.indptr[seeds + 1].astype(np.int64) - starts
    total = int(deg.sum())
    if total:
        keys = rng.random(total)
        sel, dst_local = _smallest_keys(keys, deg, int(fanout))
        # candidate -> position in the CSR indices array
        offset = starts - (np.cumsum(deg) - deg)
        picked = csr.indices[offset[dst_local] + sel].astype(np.int64)
    else:
        picked = np.empty(0, np.int64)
        dst_local = np.empty(0, np.int64)

    # Device-side id compaction: sort + unique + relabel.
    uniq, inverse = sort_ops.unique(
        _on_device(np.concatenate([seeds, picked]), device), return_inverse=True
    )
    # Keep seeds first (they are the dst nodes of the block).
    seed_pos = inverse[: seeds.size]
    order = np.concatenate([seed_pos, np.setdiff1d(np.arange(uniq.size), seed_pos)])
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[order] = np.arange(uniq.size)
    src_nodes = uniq[order]
    edge_src_local = rank[inverse[seeds.size :]]
    return SampledBlock(
        src_nodes=src_nodes.astype(np.int64),
        dst_nodes=seeds,
        edge_src=edge_src_local,
        edge_dst=dst_local,
    )


def _smallest_keys(keys: np.ndarray, deg: np.ndarray,
                   fanout: int) -> tuple[np.ndarray, np.ndarray]:
    """(candidate, segment) of each segment's ``take = min(deg, fanout)``
    smallest keys.

    ``keys`` holds ``deg[s]`` consecutive candidates per segment ``s``.  The
    result is ordered by segment, then key, ties by candidate index: exactly
    ``np.lexsort((keys, seg))`` cut to each segment's first ``take[s]``.
    When some segment has more than ``KEEP_FACTOR * fanout`` candidates,
    only candidates below their segment's threshold are sorted; every
    dropped key is at or above every kept one, so a segment that kept at
    least ``take`` candidates kept its ``take`` smallest.  A segment that
    kept fewer sends the whole call back to sorting every candidate.
    """
    nseg = deg.size
    take = np.minimum(deg, fanout)
    seg = np.repeat(np.arange(nseg, dtype=np.int64), deg)
    kept = None  # every candidate
    # below KEEP_FACTOR * fanout a segment's threshold is 1: nothing drops
    if np.any(deg > KEEP_FACTOR * fanout):
        thresh = np.minimum(1.0, KEEP_FACTOR * fanout / np.maximum(deg, 1))
        below = np.flatnonzero(keys < np.repeat(thresh, deg))
        counts = np.bincount(seg[below], minlength=nseg)
        if np.all(counts >= take):
            kept, keys, seg, deg = below, keys[below], seg[below], counts
    order = np.lexsort((keys, seg))
    rank = np.arange(order.size) - np.repeat(np.cumsum(deg) - deg, deg)
    order = order[rank < np.repeat(take, deg)]
    return (order if kept is None else kept[order]), seg[order]


def random_walks(
    graph: Graph,
    starts: np.ndarray,
    length: int,
    rng: np.random.Generator,
    restart_prob: float = 0.0,
) -> np.ndarray:
    """Uniform random walks; returns (num_starts, length + 1) node ids.

    Walks that hit a node with no neighbors stay in place (-like DGL's pad
    behaviour, we repeat the node).
    """
    starts = np.asarray(starts, dtype=np.int64)
    csr = graph.csr()
    indptr = csr.indptr
    indices = csr.indices
    walks = np.empty((starts.size, length + 1), dtype=np.int64)
    walks[:, 0] = starts
    current = starts.copy()
    for step in range(1, length + 1):
        lo = indptr[current]
        deg = indptr[current + 1] - lo
        draw = lo + np.floor(rng.random(current.size) * np.maximum(deg, 1)).astype(np.int64)
        nxt = np.where(deg > 0, indices[np.minimum(draw, indices.size - 1)], current)
        if restart_prob > 0:
            restart = rng.random(starts.size) < restart_prob
            nxt = np.where(restart, starts, nxt)
        walks[:, step] = nxt
        current = nxt
    return walks


def pinsage_neighbors(
    graph: Graph,
    seeds: np.ndarray,
    num_walks: int,
    walk_length: int,
    top_t: int,
    rng: np.random.Generator,
    device=None,
) -> SampledBlock:
    """PinSAGE importance sampling: random walks + visit-count top-T.

    For each seed, launch ``num_walks`` short walks, count node visits, and
    keep the ``top_t`` most-visited nodes as weighted neighbors.  The
    visit-count ranking is a device-side sort in the real pipeline.
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    # one batched walk launch for all seeds (how the real pipeline runs)
    starts = np.repeat(seeds, num_walks)
    walks = random_walks(graph, starts, walk_length, rng)
    all_visited = walks[:, 1:].reshape(seeds.size, -1)

    edge_src, edge_dst, edge_w = [], [], []
    for local in range(seeds.size):
        visited = all_visited[local]
        visited = visited[visited != seeds[local]]
        if visited.size == 0:
            continue
        # unique == bincount + nonzero (ascending nodes, same counts) but
        # touches only the ~num_walks*walk_length visited entries instead of
        # allocating a num_nodes-long count array per seed
        nodes, counts = np.unique(visited, return_counts=True)
        weights = counts.astype(np.float32)
        order = np.argsort(-weights, kind="stable")[:top_t]
        keep = nodes[order]
        w = weights[order]
        edge_src.append(keep)
        edge_dst.append(np.full(keep.size, local, dtype=np.int64))
        edge_w.append(w / w.sum())
    # Device-side visit-count ranking: ONE segmented sort over every walk's
    # visited nodes (keyed by (seed, node) 64-bit pairs), as DGL batches it.
    sort_ops.launch_sort(device, "radix_sort_visit_counts",
                         int(all_visited.size), 2,
                         keys=all_visited.reshape(-1), key_bits=64)
    picked = np.concatenate(edge_src) if edge_src else np.empty(0, np.int64)
    dst_local = np.concatenate(edge_dst) if edge_dst else np.empty(0, np.int64)
    weights = np.concatenate(edge_w) if edge_w else np.empty(0, np.float32)

    uniq, inverse = sort_ops.unique(
        _on_device(np.concatenate([seeds, picked]), device), return_inverse=True
    )
    seed_pos = inverse[: seeds.size]
    order = np.concatenate([seed_pos, np.setdiff1d(np.arange(uniq.size), seed_pos)])
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[order] = np.arange(uniq.size)
    edge_src_local = rank[inverse[seeds.size :]]
    # CSR construction for the block: sort edges by destination (64-bit
    # (dst, src) pair keys), another device radix sort per block.
    sort_ops.launch_sort(device, "radix_sort_block_edges",
                         int(dst_local.size), 2,
                         keys=dst_local * max(1, int(uniq.size)) + edge_src_local,
                         key_bits=64)
    return SampledBlock(
        src_nodes=uniq[order].astype(np.int64),
        dst_nodes=seeds,
        edge_src=edge_src_local,
        edge_dst=dst_local,
        edge_weight=weights,
    )


class _DeviceArray:
    """Minimal array-with-device wrapper so sort ops emit device kernels."""

    def __init__(self, data: np.ndarray, device) -> None:
        self.data = data
        self.device = device


def _on_device(array: np.ndarray, device):
    return _DeviceArray(array, device) if device is not None else array
