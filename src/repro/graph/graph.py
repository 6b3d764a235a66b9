"""Homogeneous graphs: COO edge lists with cached CSR adjacency views.

The adjacency is exposed as a :class:`~repro.tensor.SparseTensor` in several
normalizations (raw, random-walk, symmetric-GCN), mirroring what DGL/PyG
build once and reuse across training iterations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..tensor.ops.spmm import SparseTensor


def sorted_unique(values) -> np.ndarray:
    """``np.unique(values)`` for integer ids: the distinct values, sorted,
    in the input's dtype.

    It sorts and compares neighbours.  Without ``return_*`` flags numpy 2's
    ``np.unique`` takes a hash-table path that is an order of magnitude
    slower on int64 ids (4,000 and 33,000 values: 379 and 4,422 us against
    43 and 356 us sorted, numpy 2.4 on a 2-vCPU host).
    """
    values = np.sort(np.asarray(values).reshape(-1))
    first = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def unique_pairs(src: np.ndarray, dst: np.ndarray, n: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``(src, dst)`` pairs, sorted by ``src`` then ``dst``.

    ``np.unique(np.stack([src, dst], 1), axis=0)`` as two int64 columns,
    through one integer key ``src * n + dst`` per pair: with every id in
    ``[0, n)`` the keys sort in row-lexicographic order.
    """
    keys = sorted_unique(np.asarray(src, dtype=np.int64) * n + dst)
    return keys // n, keys % n


class Graph:
    """An immutable directed graph (use both edge directions for undirected)."""

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        num_nodes: Optional[int] = None,
        edge_weight: Optional[np.ndarray] = None,
    ) -> None:
        self.src = np.asarray(src, dtype=np.int64).reshape(-1)
        self.dst = np.asarray(dst, dtype=np.int64).reshape(-1)
        if self.src.shape != self.dst.shape:
            raise ValueError("src and dst must have the same length")
        if num_nodes is None:
            num_nodes = int(max(self.src.max(initial=-1),
                                self.dst.max(initial=-1)) + 1)
        if self.src.size and (self.src.max() >= num_nodes or self.dst.max() >= num_nodes):
            raise ValueError("edge endpoint out of range")
        self.num_nodes = int(num_nodes)
        self.edge_weight = (
            None if edge_weight is None
            else np.asarray(edge_weight, dtype=np.float32).reshape(-1)
        )
        if self.edge_weight is not None and self.edge_weight.shape != self.src.shape:
            raise ValueError("edge_weight length must match edge count")
        self._adj_cache: dict[tuple[str, bool], SparseTensor] = {}
        self._csr: Optional[sp.csr_matrix] = None

    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    # -- construction helpers ----------------------------------------------
    @classmethod
    def from_scipy(cls, matrix: sp.spmatrix) -> "Graph":
        coo = matrix.tocoo()
        return cls(coo.row, coo.col, num_nodes=coo.shape[0],
                   edge_weight=coo.data.astype(np.float32))

    def to_undirected(self) -> "Graph":
        """Add reverse edges (deduplicated)."""
        src, dst = unique_pairs(np.concatenate([self.src, self.dst]),
                                np.concatenate([self.dst, self.src]),
                                self.num_nodes)
        return Graph(src, dst, num_nodes=self.num_nodes)

    def add_self_loops(self) -> "Graph":
        loops = np.arange(self.num_nodes, dtype=np.int64)
        has_loop = self.src == self.dst
        keep = ~np.isin(loops, self.src[has_loop])
        src = np.concatenate([self.src, loops[keep]])
        dst = np.concatenate([self.dst, loops[keep]])
        return Graph(src, dst, num_nodes=self.num_nodes)

    # -- structure queries -----------------------------------------------------
    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.dst, minlength=self.num_nodes)

    def out_degrees(self) -> np.ndarray:
        return np.bincount(self.src, minlength=self.num_nodes)

    def csr(self) -> sp.csr_matrix:
        """Row = destination, column = source: ``A @ X`` aggregates in-neighbors."""
        if self._csr is None:
            weights = (
                self.edge_weight
                if self.edge_weight is not None
                else np.ones(self.num_edges, dtype=np.float32)
            )
            self._csr = sp.coo_matrix(
                (weights, (self.dst, self.src)),
                shape=(self.num_nodes, self.num_nodes),
            ).tocsr()
        return self._csr

    def neighbors(self, node: int) -> np.ndarray:
        """In-neighbors of ``node`` (sources of its incoming edges)."""
        csr = self.csr()
        return csr.indices[csr.indptr[node] : csr.indptr[node + 1]]

    def subgraph(self, nodes: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Node-induced subgraph; returns (subgraph, old ids of its nodes)."""
        nodes = sorted_unique(np.asarray(nodes, dtype=np.int64))
        lookup = -np.ones(self.num_nodes, dtype=np.int64)
        lookup[nodes] = np.arange(nodes.size)
        mask = (lookup[self.src] >= 0) & (lookup[self.dst] >= 0)
        sub = Graph(
            lookup[self.src[mask]],
            lookup[self.dst[mask]],
            num_nodes=nodes.size,
            edge_weight=None if self.edge_weight is None else self.edge_weight[mask],
        )
        return sub, nodes

    # -- adjacency views ----------------------------------------------------------
    def adjacency(self, norm: str = "none", add_self_loops: bool = False,
                  device=None) -> SparseTensor:
        """CSR adjacency as a SparseTensor.

        norm: "none" | "rw" (D^-1 A) | "sym" (D^-1/2 (A+I) D^-1/2 without
        forcing self loops unless requested).
        """
        key = (norm, add_self_loops)
        cached = self._adj_cache.get(key)
        if cached is not None:
            return cached if device is None else cached.to(device)
        graph = self.add_self_loops() if add_self_loops else self
        adj = graph.csr().astype(np.float32)
        if norm == "rw":
            deg = np.maximum(np.asarray(adj.sum(axis=1)).reshape(-1), 1.0)
            adj = sp.diags(1.0 / deg) @ adj
        elif norm == "sym":
            deg = np.maximum(np.asarray(adj.sum(axis=1)).reshape(-1), 1.0)
            dinv = sp.diags(1.0 / np.sqrt(deg))
            adj = dinv @ adj @ dinv
        elif norm != "none":
            raise ValueError(f"unknown normalization {norm!r}")
        result = SparseTensor(adj.tocsr())
        self._adj_cache[key] = result
        return result if device is None else result.to(device)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(nodes={self.num_nodes}, edges={self.num_edges})"
