"""k-GNN: hierarchical higher-order GNNs (Morris et al.).

KGNNL is the 1-2-GNN (node level + connected-pair level), KGNNH the
1-2-3-GNN (plus connected-triple level), trained to classify protein
graphs.  Higher levels operate on set-graphs whose nodes are k-element
subsets; constructing and aggregating over them multiplies the irregular
gather/scatter work — the paper includes both variants to show how the
profile shifts as k grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..datasets.proteins import ProteinDataset
from ..graph import Graph, batch_graphs, unique_pairs
from ..tensor import Tensor, functional as F, nn
from ..tensor.optim import Adam
from .layers import gather_scatter


@dataclass
class SetGraph:
    """A k-set graph: one node per k-element subset of the base graph."""

    #: (num_sets, k) member node ids (base-graph coordinates)
    members: np.ndarray
    #: set-graph edges (sets sharing k-1 members)
    edge_src: np.ndarray
    edge_dst: np.ndarray

    @property
    def num_sets(self) -> int:
        return int(self.members.shape[0])


def build_pair_graph(graph: Graph) -> SetGraph:
    """2-sets = connected node pairs; edges link pairs sharing a node."""
    mask = graph.src < graph.dst
    pairs = np.stack(unique_pairs(graph.src[mask], graph.dst[mask],
                                  graph.num_nodes), axis=1)
    edge_src, edge_dst = _edges_by_shared_members(pairs)
    return SetGraph(pairs, edge_src, edge_dst)


def build_triple_graph(graph: Graph, max_triples: int = 4000) -> SetGraph:
    """3-sets = connected triples (a path or triangle through the graph).

    Edges ``a < b`` are taken in edge order, each adding every triple
    ``{a, b, c}`` with ``c`` a neighbor of ``b`` or of ``a``; enumeration
    stops after the edge that brings the distinct count to ``max_triples``
    (that edge's triples are all kept).
    """
    csr = graph.csr()
    mask = graph.src < graph.dst
    a = graph.src[mask].astype(np.int64)
    b = graph.dst[mask].astype(np.int64)
    # one candidate per (edge, neighbor c of b) and (edge, neighbor c of a)
    ends = np.concatenate([b, a])
    degree = np.diff(csr.indptr)[ends]
    edge = np.repeat(np.tile(np.arange(a.size), 2), degree)
    offset = csr.indptr[ends] - (np.cumsum(degree) - degree)
    c = csr.indices[np.repeat(offset, degree) + np.arange(degree.sum())]
    keep = (c != a[edge]) & (c != b[edge])
    edge = edge[keep]
    if edge.size == 0:
        return SetGraph(np.empty((0, 3), np.int64), np.empty(0, np.int64),
                        np.empty(0, np.int64))
    triples = np.sort(np.stack([a[edge], b[edge], c[keep]]), axis=0)
    # integer keys sort like the (sorted) triples themselves
    dims = (graph.num_nodes,) * 3
    keys, group = np.unique(np.ravel_multi_index(triples, dims),
                            return_inverse=True)
    first_edge = np.full(keys.size, a.size, dtype=np.int64)
    np.minimum.at(first_edge, group, edge)
    distinct = np.cumsum(np.bincount(first_edge, minlength=a.size))
    capped = np.flatnonzero(distinct >= max_triples)
    if capped.size:
        keys = keys[first_edge <= capped[0]]
    members = np.stack(np.unravel_index(keys, dims), axis=1).astype(np.int64)
    edge_src, edge_dst = _edges_by_shared_members(members, shared=2)
    return SetGraph(members, edge_src, edge_dst)


def _edges_by_shared_members(members: np.ndarray, shared: int | None = None
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Connect sets that share ``k - 1`` members (i.e. a (k-1)-subset).

    Every ordered pair of distinct sets with a common ``shared``-subset,
    unique and sorted by ``(src, dst)``.
    """
    from itertools import combinations

    num_sets, k = members.shape
    width = shared if shared is not None else k - 1
    if num_sets == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    # one integer key per (set, member subset), grouped by key
    dims = (int(members.max()) + 1,) * width
    cols = [list(c) for c in combinations(range(k), width)]
    subsets = np.concatenate([members[:, c] for c in cols]).T
    group = np.ravel_multi_index(subsets, dims)
    owner = np.tile(np.arange(num_sets, dtype=np.int64), len(cols))
    order = np.argsort(group, kind="stable")
    group, owner = group[order], owner[order]
    # pair every entry with every entry of its (now contiguous) group
    _, first, count = np.unique(group, return_index=True, return_counts=True)
    size = np.repeat(count, count)
    start = np.repeat(np.repeat(first, count), size)
    rank = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    src = np.repeat(owner, size)
    dst = owner[start + rank]
    keep = src != dst
    if not keep.any():
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return unique_pairs(src[keep], dst[keep], num_sets)


class GraphConvLayer(nn.Module):
    """Simple mean-aggregation graph convolution (the k-GNN layer)."""

    def __init__(self, in_features: int, out_features: int) -> None:
        super().__init__()
        self.root = nn.Linear(in_features, out_features)
        self.neighbor = nn.Linear(in_features, out_features, bias=False)

    def forward(self, x: Tensor, edge_src: np.ndarray, edge_dst: np.ndarray
                ) -> Tensor:
        agg = gather_scatter(x, edge_src, edge_dst, x.shape[0], reduce="mean")
        return F.relu(self.root(x) + self.neighbor(agg))


class KGNN(nn.Module):
    """Hierarchical 1-2(-3)-GNN with per-level pooling into the readout."""

    def __init__(self, in_features: int, hidden: int = 32,
                 num_classes: int = 2, order: int = 2,
                 layers_per_level: int = 2) -> None:
        super().__init__()
        if order not in (2, 3):
            raise ValueError("order must be 2 (KGNNL) or 3 (KGNNH)")
        self.order = order
        self.level1 = nn.ModuleList()
        dims = [in_features] + [hidden] * layers_per_level
        for i in range(layers_per_level):
            self.level1.append(GraphConvLayer(dims[i], dims[i + 1]))
        self.level2 = nn.ModuleList(
            [GraphConvLayer(hidden, hidden) for _ in range(layers_per_level)]
        )
        self.level3 = (
            nn.ModuleList(
                [GraphConvLayer(hidden, hidden) for _ in range(layers_per_level)]
            )
            if order == 3
            else None
        )
        self.head = nn.Sequential(
            nn.Linear(hidden * order, hidden),
            nn.ReLU(),
            nn.Dropout(0.2),
            nn.Linear(hidden, num_classes),
        )

    def _pool_to_sets(self, h: Tensor, members: np.ndarray) -> Tensor:
        """Initialize k-set features as the mean of member node states."""
        if members.shape[0] == 0:
            return Tensor(np.zeros((0, h.shape[1]), np.float32),
                          device=h.device, _skip_copy=True)
        k = members.shape[1]
        gathered = F.index_select(h, members.reshape(-1))
        set_ids = np.repeat(np.arange(members.shape[0]), k)
        return F.segment_mean(gathered, set_ids, members.shape[0])

    def forward(
        self,
        x: Tensor,
        graph_edges: tuple[np.ndarray, np.ndarray],
        graph_ids: np.ndarray,
        num_graphs: int,
        pair_graph: SetGraph,
        pair_graph_ids: np.ndarray,
        triple_graph: Optional[SetGraph] = None,
        triple_graph_ids: Optional[np.ndarray] = None,
    ) -> Tensor:
        h = x
        for layer in self.level1:
            h = layer(h, *graph_edges)
        pooled = [F.segment_mean(h, graph_ids, num_graphs)]

        h2 = self._pool_to_sets(h, pair_graph.members)
        for layer in self.level2:
            h2 = layer(h2, pair_graph.edge_src, pair_graph.edge_dst)
        pooled.append(F.segment_mean(h2, pair_graph_ids, num_graphs))

        if self.order == 3:
            assert triple_graph is not None and self.level3 is not None
            h3 = self._pool_to_sets(h, triple_graph.members)
            for layer in self.level3:
                h3 = layer(h3, triple_graph.edge_src, triple_graph.edge_dst)
            pooled.append(F.segment_mean(h3, triple_graph_ids, num_graphs))

        return self.head(F.cat(pooled, axis=1))


def _batch_set_graph(set_graphs: list[SetGraph], k: int,
                     node_offsets: np.ndarray) -> tuple[SetGraph, np.ndarray]:
    """Merge per-graph k-set graphs into one batch with shifted ids."""
    members, srcs, dsts, gids = [], [], [], []
    set_offset = 0
    for gid, (sg, node_off) in enumerate(zip(set_graphs, node_offsets)):
        if sg.num_sets:
            members.append(sg.members + node_off)
            srcs.append(sg.edge_src + set_offset)
            dsts.append(sg.edge_dst + set_offset)
            gids.append(np.full(sg.num_sets, gid, dtype=np.int64))
            set_offset += sg.num_sets
    if not members:
        empty = SetGraph(np.empty((0, k), np.int64), np.empty(0, np.int64),
                         np.empty(0, np.int64))
        return empty, np.empty(0, np.int64)
    merged = SetGraph(
        np.concatenate(members),
        np.concatenate(srcs),
        np.concatenate(dsts),
    )
    return merged, np.concatenate(gids)


@dataclass
class KGNNWorkload:
    model: KGNN
    dataset: ProteinDataset
    optimizer: Adam
    order: int
    batch_size: int = 32
    device: object = None
    #: per-graph set graphs keyed by ``(dataset graph index, builder)``: the
    #: dataset graphs are immutable and recur every epoch, so the subset
    #: enumeration runs once per graph instead of once per batch; bypassed
    #: under the ``REPRO_ANALYSIS_CACHE`` escape hatch (the cold path
    #: rebuilds every batch)
    _set_graphs: dict = field(default_factory=dict)

    @classmethod
    def build(cls, dataset: ProteinDataset, order: int = 2, device=None,
              hidden: int = 32, batch_size: int = 32, lr: float = 1e-3
              ) -> "KGNNWorkload":
        in_features = dataset.node_features[0].shape[1]
        model = KGNN(in_features, hidden=hidden, order=order)
        if device is not None:
            model.to(device)
        return cls(model=model, dataset=dataset,
                   optimizer=Adam(model.parameters(), lr=lr), order=order,
                   batch_size=batch_size, device=device)

    def _set_graph(self, i: int, builder) -> SetGraph:
        """Dataset graph ``i``'s set graph, memoized unless the cache is off."""
        from ..gpu import analysis_cache

        if not analysis_cache.enabled():
            return builder(self.dataset.graphs[i])
        key = (i, builder)
        if key not in self._set_graphs:
            self._set_graphs[key] = builder(self.dataset.graphs[i])
        return self._set_graphs[key]

    def _forward_batch(self, batch_idx: np.ndarray) -> tuple[Tensor, np.ndarray]:
        ds = self.dataset
        graphs = [ds.graphs[i] for i in batch_idx]
        batched = batch_graphs(graphs)
        feats = np.concatenate([ds.node_features[i] for i in batch_idx])
        labels = ds.labels[batch_idx]
        if self.device is not None:
            self.device.h2d(feats, "kgnn.features")
            self.device.h2d(batched.graph.src, "kgnn.edges")
        pair_graph, pair_ids = _batch_set_graph(
            [self._set_graph(i, build_pair_graph) for i in batch_idx], 2,
            batched.offsets[:-1])
        triple_graph, triple_ids = (None, None)
        if self.order == 3:
            triple_graph, triple_ids = _batch_set_graph(
                [self._set_graph(i, build_triple_graph) for i in batch_idx], 3,
                batched.offsets[:-1])
        x = Tensor(feats, device=self.device, _skip_copy=True)
        logits = self.model(
            x, (batched.graph.src, batched.graph.dst), batched.graph_ids,
            batched.num_graphs, pair_graph, pair_ids, triple_graph, triple_ids,
        )
        return logits, labels

    def train_epoch(self, rng: np.random.Generator,
                    indices: np.ndarray | None = None) -> dict[str, float]:
        ds = self.dataset
        if indices is None:
            indices = ds.train_idx
        order = rng.permutation(indices)
        total, count, correct = 0.0, 0, 0
        for start in range(0, order.size, self.batch_size):
            batch_idx = order[start : start + self.batch_size]
            self.optimizer.zero_grad()
            logits, labels = self._forward_batch(batch_idx)
            loss = F.cross_entropy(logits, labels)
            loss.backward()
            self.optimizer.step()
            total += loss.item() * batch_idx.size
            count += batch_idx.size
            correct += int((logits.data.argmax(axis=1) == labels).sum())
        return {"loss": total / max(count, 1), "acc": correct / max(count, 1)}

    def evaluate(self, indices: np.ndarray) -> float:
        from ..tensor import no_grad

        correct = 0
        with no_grad():
            for start in range(0, indices.size, self.batch_size):
                batch_idx = indices[start : start + self.batch_size]
                logits, labels = self._forward_batch(batch_idx)
                correct += int((logits.data.argmax(axis=1) == labels).sum())
        return correct / max(indices.size, 1)
