"""Edge-cut graph partitioning for sharded training.

A :class:`PartitionPlan` assigns every node to exactly one part and records,
per part, the *halo*: the out-of-part in-neighbors whose features must be
fetched (over NVLink, or staged from the host) before the part's owned rows
can be aggregated.  Two partitioners are provided:

``bfs``
    Vectorized BFS over the undirected structure from a seeded start node,
    visit order split into contiguous balanced chunks.  Cheap (a few CSR
    gathers per frontier), locality-aware, and the default for the
    million-node capacity study.

``greedy``
    Streaming LDG-style assignment (Stanton & Kliot): nodes arrive in a
    seeded random order and each joins the part holding most of its already
    placed neighbors, subject to a capacity cap derived from the balance
    factor.  Better cut quality on small graphs, O(nodes) Python loop.

Either initial assignment is then improved by ``refine`` sweeps of
capacity-constrained label propagation: every node scores each part by its
neighbor count there, positive-gain moves are ranked globally (descending
gain, node id as tie-break) and accepted while the destination stays under
the balance cap and the source keeps at least one node.  Each sweep is a
handful of O(edges) numpy passes — no Python loop — which is what makes
the cut quality acceptable on million-node SBM graphs where raw BFS
chunking mixes communities badly.

Determinism: both methods draw from ``np.random.default_rng`` seeded with a
spawn-key-style sequence ``[seed, num_parts, method_id]``, and refinement
is pure sorted-array arithmetic, so the same ``(graph, num_parts, method,
balance, seed, refine)`` always yields a byte-identical assignment array
(pinned by :func:`plan_digest` and the Hypothesis property suite).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.sparse as sp

from .graph import Graph, sorted_unique

#: stable method ids used in the rng spawn key (never renumber)
_METHOD_IDS = {"bfs": 1, "greedy": 2}


@dataclass(frozen=True, eq=False)
class PartitionPlan:
    """An edge-cut partition of a graph plus its quality metrics."""

    num_parts: int
    num_nodes: int
    num_edges: int
    method: str
    balance: float
    seed: int
    #: label-propagation refinement sweeps applied after initial assignment
    refine: int
    #: node -> owning part (int32, length num_nodes)
    assignment: np.ndarray
    #: per part: sorted array of owned node ids
    parts: Tuple[np.ndarray, ...]
    #: per part: sorted array of out-of-part in-neighbors of owned nodes
    halos: Tuple[np.ndarray, ...]
    #: number of edges whose endpoints live in different parts
    edge_cut: int
    #: edge_cut / num_edges
    cut_fraction: float
    #: max part size over the ideal (num_nodes / num_parts)
    achieved_balance: float
    #: (owned + halo replicas) / num_nodes — 1.0 means no replication
    replication_factor: float

    def part_sizes(self) -> list[int]:
        return [int(p.size) for p in self.parts]

    def halo_sizes(self) -> list[int]:
        return [int(h.size) for h in self.halos]

    def describe(self) -> dict:
        """Scalar summary used by shard reports and goldens."""
        return {
            "num_parts": self.num_parts,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "method": self.method,
            "balance": self.balance,
            "seed": self.seed,
            "refine": self.refine,
            "edge_cut": self.edge_cut,
            "cut_fraction": round(self.cut_fraction, 8),
            "achieved_balance": round(self.achieved_balance, 8),
            "replication_factor": round(self.replication_factor, 8),
            "part_sizes": self.part_sizes(),
            "halo_sizes": self.halo_sizes(),
        }


def plan_digest(plan: PartitionPlan) -> str:
    """SHA-256 over the canonical plan bytes (header + assignment array)."""
    h = hashlib.sha256()
    header = (f"{plan.num_parts}|{plan.num_nodes}|{plan.num_edges}|"
              f"{plan.method}|{plan.balance!r}|{plan.seed}|{plan.refine}|")
    h.update(header.encode())
    h.update(np.ascontiguousarray(plan.assignment, dtype=np.int32).tobytes())
    return h.hexdigest()


def partition_graph(graph: Graph, num_parts: int, method: str = "bfs",
                    balance: float = 1.05, seed: int = 0,
                    refine: int = 4) -> PartitionPlan:
    """Partition ``graph`` into ``num_parts`` balanced edge-cut parts."""
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    if graph.num_nodes == 0:
        raise ValueError("cannot partition an empty graph")
    if num_parts > graph.num_nodes:
        raise ValueError(
            f"num_parts={num_parts} exceeds num_nodes={graph.num_nodes}")
    if method not in _METHOD_IDS:
        raise ValueError(f"unknown partition method {method!r}")
    if balance < 1.0:
        raise ValueError("balance factor must be >= 1.0")
    if refine < 0:
        raise ValueError("refine sweep count must be >= 0")
    rng = np.random.default_rng([seed, num_parts, _METHOD_IDS[method]])
    if num_parts == 1:
        assignment = np.zeros(graph.num_nodes, dtype=np.int32)
    else:
        sym = _undirected_csr(graph)
        if method == "bfs":
            assignment = _bfs_assign(sym, num_parts, rng)
        else:
            assignment = _greedy_assign(sym, num_parts, balance, rng)
        if refine > 0:
            cap = int(math.ceil(graph.num_nodes / num_parts * balance))
            assignment = _refine(assignment, sym, num_parts, cap, refine)
    return _build_plan(graph, assignment, num_parts, method, balance, seed,
                       refine)


# -- BFS chunking --------------------------------------------------------------
def _undirected_csr(graph: Graph) -> sp.csr_matrix:
    """Structure-only CSR of A + A^T (edge weights irrelevant for cuts)."""
    adj = graph.csr()
    pattern = sp.csr_matrix(
        (np.ones(adj.nnz, dtype=np.int8), adj.indices, adj.indptr),
        shape=adj.shape)
    sym = pattern + pattern.T
    sym.sort_indices()
    return sym


def _bfs_assign(sym: sp.csr_matrix, num_parts: int,
                rng: np.random.Generator) -> np.ndarray:
    indptr, indices = sym.indptr, sym.indices
    n = sym.shape[0]
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    filled = 0
    start = int(rng.integers(n))
    frontier = np.array([start], dtype=np.int64)
    visited[start] = True
    while filled < n:
        if frontier.size == 0:
            # next unvisited node (lowest id) seeds the next component
            restart = int(np.flatnonzero(~visited)[0])
            visited[restart] = True
            frontier = np.array([restart], dtype=np.int64)
        order[filled:filled + frontier.size] = frontier
        filled += frontier.size
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            frontier = np.empty(0, dtype=np.int64)
            continue
        shift = np.repeat(
            starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
        nbrs = indices[np.arange(total) + shift]
        nbrs = sorted_unique(nbrs[~visited[nbrs]])
        visited[nbrs] = True
        frontier = nbrs
    # contiguous balanced chunks over the BFS visit order
    base, extra = divmod(n, num_parts)
    sizes = np.full(num_parts, base, dtype=np.int64)
    sizes[:extra] += 1
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    assignment = np.empty(n, dtype=np.int32)
    for p in range(num_parts):
        assignment[order[bounds[p]:bounds[p + 1]]] = p
    return assignment


# -- greedy streaming assignment -----------------------------------------------
def _greedy_assign(sym: sp.csr_matrix, num_parts: int, balance: float,
                   rng: np.random.Generator) -> np.ndarray:
    n = sym.shape[0]
    cap = int(math.ceil(n / num_parts * balance))
    if cap * num_parts < n:  # pragma: no cover - balance >= 1 guarantees room
        raise ValueError("balance factor leaves no room for every node")
    indptr, indices = sym.indptr, sym.indices
    assignment = np.full(n, -1, dtype=np.int32)
    loads = np.zeros(num_parts, dtype=np.int64)
    part_index = np.arange(num_parts)
    for node in rng.permutation(n):
        nbrs = indices[indptr[node]:indptr[node + 1]]
        placed = assignment[nbrs]
        scores = np.bincount(placed[placed >= 0], minlength=num_parts)
        open_parts = loads < cap
        # best score, then least loaded, then lowest part index
        pick = np.lexsort((part_index[open_parts], loads[open_parts],
                           -scores[open_parts]))[0]
        part = int(part_index[open_parts][pick])
        assignment[node] = part
        loads[part] += 1
    return assignment


# -- label-propagation refinement ----------------------------------------------
def _group_rank(groups: np.ndarray) -> np.ndarray:
    """Rank of each element within its group, in the given element order."""
    idx = np.argsort(groups, kind="stable")
    g = groups[idx]
    starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
    lens = np.diff(np.r_[starts, g.size])
    rank = np.empty(g.size, dtype=np.int64)
    rank[idx] = np.arange(g.size) - np.repeat(starts, lens)
    return rank


def _refine(assignment: np.ndarray, sym: sp.csr_matrix, num_parts: int,
            cap: int, sweeps: int) -> np.ndarray:
    """Capacity-constrained label-propagation sweeps over the assignment.

    Each sweep scores every node's parts by undirected neighbor count,
    ranks positive-gain moves globally (descending gain, node id as
    tie-break) and accepts them while the destination stays under ``cap``
    and the source keeps at least one node.  Acceptance uses the pre-sweep
    loads, so a sweep can never push a part past ``cap`` or empty it.
    All steps are O(edges) numpy passes; everything is deterministic.
    """
    n = assignment.size
    indptr, indices = sym.indptr, sym.indices
    u = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    part = assignment.astype(np.int64)
    arange_n = np.arange(n)
    for _ in range(sweeps):
        counts = np.bincount(u * num_parts + part[indices],
                             minlength=n * num_parts).reshape(n, num_parts)
        best_p = np.argmax(counts, axis=1)
        gain = counts[arange_n, best_p] - counts[arange_n, part]
        cand = np.flatnonzero((gain > 0) & (best_p != part))
        if cand.size == 0:
            break
        order = cand[np.lexsort((cand, -gain[cand]))]
        dest = best_p[order]
        src = part[order]
        loads = np.bincount(part, minlength=num_parts)
        room = np.maximum(cap - loads, 0)
        spare = np.maximum(loads - 1, 0)
        accept = ((_group_rank(dest) < room[dest])
                  & (_group_rank(src) < spare[src]))
        if not accept.any():
            break
        part[order[accept]] = dest[accept]
    return part.astype(np.int32)


# -- plan assembly -------------------------------------------------------------
def _build_plan(graph: Graph, assignment: np.ndarray, num_parts: int,
                method: str, balance: float, seed: int,
                refine: int = 0) -> PartitionPlan:
    src_part = assignment[graph.src]
    dst_part = assignment[graph.dst]
    cut_mask = src_part != dst_part
    edge_cut = int(cut_mask.sum())
    parts = []
    halos = []
    for p in range(num_parts):
        parts.append(np.flatnonzero(assignment == p).astype(np.int64))
        # in-neighbors of owned nodes that live in another part
        halos.append(sorted_unique(graph.src[cut_mask & (dst_part == p)]))
    ideal = graph.num_nodes / num_parts
    replicas = sum(p.size for p in parts) + sum(h.size for h in halos)
    return PartitionPlan(
        num_parts=num_parts,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        method=method,
        balance=float(balance),
        seed=int(seed),
        refine=int(refine),
        assignment=assignment,
        parts=tuple(parts),
        halos=tuple(halos),
        edge_cut=edge_cut,
        cut_fraction=edge_cut / max(1, graph.num_edges),
        achieved_balance=max(p.size for p in parts) / ideal,
        replication_factor=replicas / graph.num_nodes,
    )
