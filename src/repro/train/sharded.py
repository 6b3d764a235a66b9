"""Partition-parallel (sharded) and out-of-core GNN training.

PR 5 gave every simulated device a 16 GiB caching HBM allocator with OOM
semantics; this module is the subsystem that finally *exercises* it.  A
graph is split by :func:`repro.graph.partition.partition_graph`; each
simulated GPU owns one partition of a 2-layer GCN and the feature rows of
its nodes, and fetches the rest over the NVLink model:

* **halo exchange** — before layer 1 each device gathers the features of
  its out-of-part in-neighbors (the partition plan's halo); before layer 2
  it gathers the layer-1 activations of the same halo rows (each hidden row
  is computed exactly once, by its owner — no redundant compute); the
  backward pass runs the reverse exchange, scattering halo-gradient
  contributions back to the owners.  All three ride the new
  :meth:`~repro.gpu.multigpu.MultiGPUSystem.halo_exchange` collective and
  appear on the ``halo`` trace stream.
* **host offload** — with ``offload=True`` a single device trains a graph
  larger than its HBM by staging one partition at a time through h2d/d2h
  (three sweeps per epoch: layer-1 forward, layer-2 forward+backward,
  layer-1 backward), so peak residency is one partition's working set plus
  the parameters.

Two execution modes share one geometry-driven accounting layer:

``numeric``
    Small graphs.  A pure-numpy fp64 reference of the partitioned math runs
    alongside the device accounting, proving partition invariance: sliced
    rows of the global sym-normalized adjacency contain exactly the nnz of
    the whole-matrix rows in the same order, so per-part forward values are
    bitwise equal to the whole-graph run and gradients agree to fp64
    rounding (``tests/test_sharded_train.py`` pins this).

``capacity``
    Million-node graphs.  No numerics — partition geometry (owned nodes,
    halo sizes, local nnz) drives analytic allocations, kernel launches and
    transfers, which is what the capacity-frontier study (``BENCH_shard``)
    sweeps: the largest trainable node count per GPU count.

A shard run is a pure function of ``(key, parts, offload, nodes, feat_dim,
hidden, epochs, seed, mode)``: every report field is simulated-clock or
integer-geometry arithmetic (plus deterministic fp64 losses, excluded from
the digest and compared with tolerance), so shard digests are byte-stable
across repeat runs, ``--jobs`` counts, profile-cache state and
analysis-cache settings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..canonical import canonical_digest, report_digest
from ..core.params import EPOCHS, NODES, SEED, Param, resolve, table
from ..core.run import checking
from ..graph.partition import PartitionPlan, partition_graph, plan_digest
from ..gpu import OpClass, SimulationConfig
from ..gpu.multigpu import MultiGPUSystem
from ..profiling import metrics, trace
from ..tensor import autograd, manual_seed
from ..tensor.ops import base as ops

#: bump when the shard report changes shape
SHARD_VERSION = 1

#: workloads with a sharded-training engine (the synthetic-citation axis)
SHARDABLE = ("ARGA",)

#: auto mode runs the fp64 numeric reference up to this many feature cells
NUMERIC_MAX_CELLS = 1 << 22

FLOAT_BYTES = 4
INDEX_BYTES = 8
LABEL_BYTES = 8

#: named configurations for goldens and the CLI (``python -m repro shard
#: ARGA-P4``); all resolve to the ARGA synthetic-citation workload
SHARD_GOLDEN_CONFIGS = {
    "ARGA-P2": dict(parts=2, offload=False, nodes=768, feat_dim=48,
                    hidden=16, epochs=2, seed=0, mode="numeric"),
    "ARGA-P4": dict(parts=4, offload=False, nodes=768, feat_dim=48,
                    hidden=16, epochs=2, seed=0, mode="numeric"),
    "ARGA-OFFLOAD": dict(parts=4, offload=True, nodes=768, feat_dim=48,
                         hidden=16, epochs=2, seed=0, mode="numeric"),
    "ARGA-CAP4": dict(parts=4, offload=False, nodes=20000, feat_dim=256,
                      hidden=32, epochs=2, seed=0, mode="capacity"),
}

SHARD_GOLDEN_KEYS = tuple(SHARD_GOLDEN_CONFIGS)

#: every parameter of :func:`shard_run`: default, domain and CLI option
SHARD_PARAMS = table(
    Param("parts", 4, low=1, help="graph partitions (default: the named "
          "config's, else %(default)s)"),
    Param("offload", False,
          help="stage partitions out-of-core through one device's HBM"),
    replace(NODES, default=4096),
    Param("feat_dim", 64, low=1, help="synthetic feature width (default: "
          "the config's, else %(default)s)"),
    Param("hidden", 32, low=1, cli=False),
    EPOCHS,
    SEED,
    Param("mode", "auto", choices=("auto", "numeric", "capacity"), cli=False),
    Param("name", cli=False),
)

#: the optimizer step, partitioner and balance tolerance of every shard run
LR = 0.2
PARTITION_METHOD = "bfs"
PARTITION_BALANCE = 1.05


def resolve_shard_config(name: str) -> tuple[str, dict]:
    """Key resolution for the CLI and :func:`shard_run`: a named config or
    a bare workload key."""
    if name in SHARD_GOLDEN_CONFIGS:
        return "ARGA", dict(SHARD_GOLDEN_CONFIGS[name], name=name)
    upper = name.upper()
    if upper in SHARDABLE:
        return upper, {}
    raise ValueError(
        f"unknown shard config {name!r}; shardable workloads: "
        f"{sorted(SHARDABLE)}, named configs: {sorted(SHARD_GOLDEN_CONFIGS)}")


def resolve_mode(mode: str, nodes: int, feat_dim: int) -> str:
    if mode != "auto":
        return mode
    return "numeric" if nodes * feat_dim <= NUMERIC_MAX_CELLS else "capacity"


# -- dataset + plan caches -----------------------------------------------------


@lru_cache(maxsize=4)
def _shard_dataset(nodes: int, feat_dim: int, seed: int):
    from ..datasets.citation import synthetic_citation

    return synthetic_citation(int(nodes), feat_dim=int(feat_dim),
                              seed=int(seed))


@lru_cache(maxsize=8)
def _shard_plan(nodes: int, feat_dim: int, seed: int,
                parts: int) -> PartitionPlan:
    dataset = _shard_dataset(nodes, feat_dim, seed)
    return partition_graph(dataset.graph, parts, method=PARTITION_METHOD,
                           balance=PARTITION_BALANCE, seed=seed)


# -- partition geometry --------------------------------------------------------


@dataclass(frozen=True)
class PartGeometry:
    """Structural counts that drive one part's allocations and kernels."""

    n_owned: int
    #: 1-hop in-neighbor halo size (== the plan's halo for this part)
    n_halo: int
    #: nnz of the part's local adjacency slice (owned rows of A+I)
    nnz: int
    #: rows of this part held as halo by peers (reverse-exchange volume)
    rev_halo: int
    #: training seeds owned by this part
    n_train: int

    @property
    def n_local(self) -> int:
        return self.n_owned + self.n_halo


def part_geometries(graph, plan: PartitionPlan,
                    train_idx: np.ndarray) -> list[PartGeometry]:
    """Per-part structural counts, O(E) — no slicing, no materialization."""
    indeg = graph.in_degrees()
    # add_self_loops() only adds loops where none exist
    has_loop = np.zeros(graph.num_nodes, dtype=bool)
    loops = graph.src[graph.src == graph.dst]
    has_loop[loops] = True
    indeg_loops = indeg + (~has_loop)
    if plan.halos and any(h.size for h in plan.halos):
        halo_owner = np.bincount(
            plan.assignment[np.concatenate(plan.halos)],
            minlength=plan.num_parts)
    else:
        halo_owner = np.zeros(plan.num_parts, dtype=np.int64)
    train_owner = np.bincount(plan.assignment[train_idx],
                              minlength=plan.num_parts)
    return [
        PartGeometry(
            n_owned=int(plan.parts[p].size),
            n_halo=int(plan.halos[p].size),
            nnz=int(indeg_loops[plan.parts[p]].sum()),
            rev_halo=int(halo_owner[p]),
            n_train=int(train_owner[p]),
        )
        for p in range(plan.num_parts)
    ]


def _param_count(feat: int, hidden: int, classes: int) -> int:
    return feat * hidden + hidden + hidden * classes + classes


def _adj_bytes(g: PartGeometry) -> int:
    return g.nnz * (FLOAT_BYTES + INDEX_BYTES) + (g.n_owned + 1) * INDEX_BYTES


# -- analytic kernel emission --------------------------------------------------


def _emit_spmm(device, name: str, rows: int, nnz: int, width: int) -> None:
    if nnz == 0 or rows == 0:
        return
    work = float(nnz * width)
    ops.launch(
        device, name, OpClass.SPMM,
        threads=max(32, rows * min(32, max(1, width))),
        cost=ops.COSTS["spmm"], work_items=work,
        bytes_read=work * FLOAT_BYTES + nnz * (FLOAT_BYTES + INDEX_BYTES),
        bytes_written=float(rows * width * FLOAT_BYTES),
        working_set_bytes=float(rows * width * FLOAT_BYTES
                                + nnz * (FLOAT_BYTES + INDEX_BYTES)),
    )


def _emit_forward(device, g: PartGeometry, feat: int, hidden: int,
                  classes: int, layer: int) -> None:
    """One layer of the partitioned GCN forward on ``device``."""
    if layer == 1:
        _emit_spmm(device, "shard.spmm_l1", g.n_owned, g.nnz, feat)
        ops.launch_gemm(device, "shard.gemm_l1", g.n_owned, feat, hidden)
        ops.launch_elementwise(device, "shard.bias_relu",
                               g.n_owned * hidden, num_inputs=2, kind="unary")
    else:
        _emit_spmm(device, "shard.spmm_l2", g.n_owned, g.nnz, hidden)
        ops.launch_gemm(device, "shard.gemm_l2", g.n_owned, hidden, classes)
        ops.launch_reduction(device, "shard.softmax_ce",
                             in_size=g.n_train * classes, out_size=g.n_train,
                             op_class=OpClass.SOFTMAX, kind="softmax")


def _emit_backward_l2(device, g: PartGeometry, hidden: int,
                      classes: int) -> None:
    """Layer-2 backward: logits grad, W2 grad, halo-row contributions."""
    ops.launch_elementwise(device, "shard.grad_logits",
                           g.n_train * classes, num_inputs=2)
    ops.launch_gemm(device, "shard.grad_w2", hidden, g.n_owned, classes)
    ops.launch_gemm(device, "shard.grad_h1", g.n_owned, classes, hidden)
    # A_loc^T scatter of dH1 contributions over owned + halo rows
    _emit_spmm(device, "shard.spmm_l2_bwd", g.n_local, g.nnz, hidden)


def _emit_backward_l1(device, g: PartGeometry, feat: int,
                      hidden: int) -> None:
    ops.launch_elementwise(device, "shard.relu_bwd",
                           g.n_owned * hidden, num_inputs=2)
    ops.launch_gemm(device, "shard.grad_w1", feat, g.n_owned, hidden)


def _emit_sgd(device, params: int) -> None:
    ops.launch_elementwise(device, "shard.sgd_step", params, num_inputs=2)


def _alloc(device, nbytes: int, label: str) -> Optional[int]:
    if nbytes <= 0:
        return None
    return device.memory.alloc(int(nbytes), label=label,
                               phase=autograd.current_phase())


def _free(device, block: Optional[int]) -> None:
    if block is not None:
        device.memory.free(block)


# -- the device-accounting simulation ------------------------------------------


@dataclass
class ShardAccounting:
    halo_exchanges: int = 0
    halo_bytes: int = 0
    halo_time_s: float = 0.0
    allreduce_bytes: int = 0
    epoch_times_s: tuple = ()


def _halo(system: MultiGPUSystem, acct: ShardAccounting, recv_bytes,
          label: str) -> None:
    duration = system.halo_exchange(recv_bytes, label=label)
    acct.halo_exchanges += 1
    acct.halo_bytes += int(sum(recv_bytes))
    acct.halo_time_s += duration


def _simulate_parallel(system: MultiGPUSystem, geoms: list[PartGeometry],
                       feat: int, hidden: int, classes: int, epochs: int,
                       tracer) -> ShardAccounting:
    """One GPU per partition: halo exchanges over NVLink, DDP allreduce."""
    acct = ShardAccounting()
    devices = system.devices
    params = _param_count(feat, hidden, classes)
    grad_bytes = params * FLOAT_BYTES
    with autograd.phase("setup"):
        for dev, g in zip(devices, geoms):
            resident = (2 * grad_bytes + _adj_bytes(g)
                        + g.n_owned * feat * FLOAT_BYTES
                        + g.n_owned * LABEL_BYTES)
            _alloc(dev, 2 * grad_bytes, "shard.params")
            _alloc(dev, _adj_bytes(g), "shard.adj")
            _alloc(dev, g.n_owned * feat * FLOAT_BYTES, "shard.features")
            _alloc(dev, g.n_owned * LABEL_BYTES, "shard.labels")
            _alloc(dev, g.n_halo * feat * FLOAT_BYTES, "shard.halo_features")
            dev.transfer_bytes(resident, "h2d", "shard.load")
        # features move once: they are static across epochs
        _halo(system, acct,
              [g.n_halo * feat * FLOAT_BYTES for g in geoms], "halo.features")
    epoch_times = []
    for epoch in range(epochs):
        start = system.barrier()
        scratch: list[list] = [[] for _ in devices]
        with autograd.phase("forward"):
            for i, (dev, g) in enumerate(zip(devices, geoms)):
                scratch[i].append(
                    _alloc(dev, g.n_local * hidden * FLOAT_BYTES, "shard.h1"))
                scratch[i].append(
                    _alloc(dev, g.n_owned * classes * FLOAT_BYTES,
                           "shard.logits"))
                _emit_forward(dev, g, feat, hidden, classes, layer=1)
        _halo(system, acct,
              [g.n_halo * hidden * FLOAT_BYTES for g in geoms], "halo.h1")
        with autograd.phase("forward"):
            for dev, g in zip(devices, geoms):
                _emit_forward(dev, g, feat, hidden, classes, layer=2)
        with autograd.phase("backward"):
            for i, (dev, g) in enumerate(zip(devices, geoms)):
                scratch[i].append(
                    _alloc(dev, g.n_local * hidden * FLOAT_BYTES,
                           "shard.dh1"))
                _emit_backward_l2(dev, g, hidden, classes)
        _halo(system, acct,
              [g.rev_halo * hidden * FLOAT_BYTES for g in geoms], "halo.dh1")
        with autograd.phase("backward"):
            for dev, g in zip(devices, geoms):
                _emit_backward_l1(dev, g, feat, hidden)
        if len(devices) > 1:
            system.allreduce(grad_bytes)
            acct.allreduce_bytes += grad_bytes
        with autograd.phase("optimizer"):
            for dev in devices:
                _emit_sgd(dev, params)
        for i, dev in enumerate(devices):
            for block in scratch[i]:
                _free(dev, block)
            dev.memory.end_epoch()
        end = system.barrier()
        epoch_times.append(end - start)
        if tracer is not None:
            for dev in devices:
                tracer.end_epoch(dev, epoch, start)
    acct.epoch_times_s = tuple(epoch_times)
    return acct


def _simulate_offload(system: MultiGPUSystem, geoms: list[PartGeometry],
                      feat: int, hidden: int, classes: int, epochs: int,
                      tracer) -> ShardAccounting:
    """Out-of-core: one device stages partitions through h2d/d2h.

    Three sweeps per epoch keep only one partition resident at a time:
    layer-1 forward (features in, hidden activations out), layer-2
    forward + backward (hidden rows in, halo-gradient contributions out),
    layer-1 backward (features + owned gradient rows in).  Staging buffers
    are sized once for the heaviest partition, so the caching allocator
    reuses the same buckets across parts and epochs and peak HBM is the
    parameters plus one sweep's worst-case staging set.
    """
    acct = ShardAccounting()
    dev = system.devices[0]
    params = _param_count(feat, hidden, classes)
    grad_bytes = params * FLOAT_BYTES
    max_adj = max(_adj_bytes(g) for g in geoms)
    max_owned = max(g.n_owned for g in geoms)
    max_halo = max(g.n_halo for g in geoms)
    max_local = max(g.n_local for g in geoms)
    with autograd.phase("setup"):
        _alloc(dev, 2 * grad_bytes, "shard.params")
        dev.transfer_bytes(2 * grad_bytes, "h2d", "shard.load")
    epoch_times = []
    for epoch in range(epochs):
        start = dev.elapsed_s()
        with autograd.phase("forward"):  # sweep 1: layer-1 forward
            blocks = [
                _alloc(dev, max_adj, "shard.adj"),
                _alloc(dev, max_owned * feat * FLOAT_BYTES, "shard.features"),
                _alloc(dev, max_halo * feat * FLOAT_BYTES,
                       "shard.halo_features"),
                _alloc(dev, max_owned * hidden * FLOAT_BYTES, "shard.h1"),
            ]
            for g in geoms:
                dev.transfer_bytes(
                    _adj_bytes(g) + g.n_local * feat * FLOAT_BYTES,
                    "h2d", "shard.stage_in")
                _emit_forward(dev, g, feat, hidden, classes, layer=1)
                dev.transfer_bytes(g.n_owned * hidden * FLOAT_BYTES,
                                   "d2h", "shard.h1_out")
            for block in blocks:
                _free(dev, block)
        # sweep 2: layer-2 forward + backward
        with autograd.phase("forward"):
            blocks = [
                _alloc(dev, max_adj, "shard.adj"),
                _alloc(dev, max_local * hidden * FLOAT_BYTES, "shard.h1"),
                _alloc(dev, max_owned * LABEL_BYTES, "shard.labels"),
                _alloc(dev, max_local * hidden * FLOAT_BYTES, "shard.dh1"),
            ]
        for g in geoms:
            with autograd.phase("forward"):
                dev.transfer_bytes(
                    _adj_bytes(g) + g.n_local * hidden * FLOAT_BYTES
                    + g.n_owned * LABEL_BYTES,
                    "h2d", "shard.stage_in")
                _emit_forward(dev, g, feat, hidden, classes, layer=2)
            with autograd.phase("backward"):
                _emit_backward_l2(dev, g, hidden, classes)
                dev.transfer_bytes(g.n_local * hidden * FLOAT_BYTES,
                                   "d2h", "shard.dh1_out")
        for block in blocks:
            _free(dev, block)
        with autograd.phase("backward"):  # sweep 3: layer-1 backward
            blocks = [
                _alloc(dev, max_adj, "shard.adj"),
                _alloc(dev, max_owned * feat * FLOAT_BYTES, "shard.features"),
                _alloc(dev, max_halo * feat * FLOAT_BYTES,
                       "shard.halo_features"),
                _alloc(dev, max_owned * hidden * FLOAT_BYTES, "shard.dh1"),
            ]
            for g in geoms:
                dev.transfer_bytes(
                    _adj_bytes(g) + g.n_local * feat * FLOAT_BYTES
                    + g.n_owned * hidden * FLOAT_BYTES,
                    "h2d", "shard.stage_in")
                _emit_backward_l1(dev, g, feat, hidden)
            for block in blocks:
                _free(dev, block)
        with autograd.phase("optimizer"):
            _emit_sgd(dev, params)
        dev.memory.end_epoch()
        epoch_times.append(dev.elapsed_s() - start)
        if tracer is not None:
            tracer.end_epoch(dev, epoch, start)
    acct.epoch_times_s = tuple(epoch_times)
    return acct


# -- the fp64 numeric reference ------------------------------------------------


def _sym_adjacency(graph) -> sp.csr_matrix:
    """Global sym-normalized adjacency with self loops.

    Mirrors ``Graph.adjacency(norm="sym", add_self_loops=True)`` value for
    value (float32 data), without building a device-facing SparseTensor.
    """
    g = graph.add_self_loops()
    adj = g.csr().astype(np.float32)
    deg = np.maximum(np.asarray(adj.sum(axis=1)).reshape(-1), 1.0)
    dinv = sp.diags(1.0 / np.sqrt(deg))
    return (dinv @ adj @ dinv).tocsr()


def init_params(feat: int, hidden: int, classes: int, seed: int) -> dict:
    """Glorot-style fp64 parameters, seeded with a spawn key."""
    rng = np.random.default_rng([seed, 7])
    return {
        "W1": rng.normal(0.0, (2.0 / (feat + hidden)) ** 0.5, (feat, hidden)),
        "b1": np.zeros(hidden),
        "W2": rng.normal(0.0, (2.0 / (hidden + classes)) ** 0.5,
                         (hidden, classes)),
        "b2": np.zeros(classes),
    }


def train_numeric(dataset, plan: PartitionPlan, hidden: int, epochs: int,
                  lr: float, seed: int) -> dict:
    """Full-batch partitioned 2-layer GCN in fp64 — the reference math.

    Per part ``p`` with owned rows ``O`` and support ``S = O ∪ halo``:
    ``A_loc = A_sym[O][:, S]`` holds exactly the nnz of the whole-matrix
    rows ``O`` in the same order (row slicing preserves per-row column
    order; every column of an owned row lies in ``S`` by the halo
    property), so ``A_loc @ X[S]`` is bitwise equal to ``(A_sym @ X)[O]``.
    Layer-2 support is again ``S`` because each part aggregates its owned
    rows only, from hidden rows computed once by their owners.  Per-part
    gradients sum (fixed part order) to the full-batch gradient by
    linearity, so 1/2/4-part runs agree to fp64 rounding.

    Returns ``{"losses": [per-epoch loss], "grads": last-epoch gradients,
    "params": final parameters}``.
    """
    graph = dataset.graph
    n = graph.num_nodes
    A = _sym_adjacency(graph)
    X = np.asarray(dataset.features[np.arange(n)], dtype=np.float64)
    labels = np.asarray(dataset.labels, dtype=np.int64)
    train_idx = np.asarray(dataset.train_idx, dtype=np.int64)
    n_train = int(train_idx.size)
    train_mask = np.zeros(n, dtype=bool)
    train_mask[train_idx] = True
    classes = dataset.num_classes
    feat = X.shape[1]
    p_ = init_params(feat, hidden, classes, seed)
    W1, b1, W2, b2 = p_["W1"], p_["b1"], p_["W2"], p_["b2"]

    supports, locals_, train_rows, owned_labels = [], [], [], []
    for p in range(plan.num_parts):
        owned = plan.parts[p]
        S = np.union1d(owned, plan.halos[p])
        supports.append(S)
        locals_.append(A[owned][:, S])
        train_rows.append(np.flatnonzero(train_mask[owned]))
        owned_labels.append(labels[owned])

    losses, grads = [], {}
    for _ in range(epochs):
        # forward, layer 1: owners compute their hidden rows
        H1 = np.zeros((n, hidden))
        M1s = []
        for p in range(plan.num_parts):
            M1 = locals_[p] @ X[supports[p]]
            M1s.append(M1)
            H1[plan.parts[p]] = np.maximum(M1 @ W1 + b1, 0.0)
        # forward, layer 2 (+ per-part CE partial sums) and backward
        loss_sum = 0.0
        dW1 = np.zeros_like(W1)
        db1 = np.zeros_like(b1)
        dW2 = np.zeros_like(W2)
        db2 = np.zeros_like(b2)
        dH1 = np.zeros((n, hidden))
        part_state = []
        for p in range(plan.num_parts):
            M2 = locals_[p] @ H1[supports[p]]
            Z = M2 @ W2 + b2
            rows = train_rows[p]
            Zt = Z[rows]
            m = Zt.max(axis=1, keepdims=True) if Zt.size else Zt
            lse = m + np.log(np.exp(Zt - m).sum(axis=1, keepdims=True)) \
                if Zt.size else Zt
            y = owned_labels[p][rows]
            if Zt.size:
                loss_sum += float(
                    (lse.ravel() - Zt[np.arange(rows.size), y]).sum())
            part_state.append((M2, Z, rows, lse, y))
        losses.append(loss_sum / n_train)
        for p in range(plan.num_parts):
            M2, Z, rows, lse, y = part_state[p]
            G = np.zeros_like(Z)
            if rows.size:
                soft = np.exp(Z[rows] - lse)
                soft[np.arange(rows.size), y] -= 1.0
                G[rows] = soft / n_train
            dW2 += M2.T @ G
            db2 += G.sum(axis=0)
            dH1[supports[p]] += locals_[p].T @ (G @ W2.T)
        for p in range(plan.num_parts):
            owned = plan.parts[p]
            dpre = dH1[owned] * (H1[owned] > 0)
            dW1 += M1s[p].T @ dpre
            db1 += dpre.sum(axis=0)
        grads = {"W1": dW1, "b1": db1, "W2": dW2, "b2": db2}
        W1 = W1 - lr * dW1
        b1 = b1 - lr * db1
        W2 = W2 - lr * dW2
        b2 = b2 - lr * db2
    return {"losses": losses, "grads": grads,
            "params": {"W1": W1, "b1": b1, "W2": W2, "b2": b2}}


# -- reporting -----------------------------------------------------------------

def _halo_trace_digest(timeline: trace.Timeline) -> str:
    """SHA-256 over the canonical halo span stream (the halo trace golden)."""
    spans = [
        {"name": s.name, "pid": s.pid, "tid": s.tid, "ts_us": s.ts_us,
         "dur_us": s.dur_us, "args": dict(s.args)}
        for s in timeline.query(cat=trace.CAT_HALO)
    ]
    return canonical_digest(spans)


def build_shard_report(
    key: str, params, gpus: int, classes: int, graph, plan: PartitionPlan,
    geoms: list[PartGeometry], acct: ShardAccounting, system: MultiGPUSystem,
    losses: list, timeline: trace.Timeline,
) -> dict:
    """Canonical shard report under the resolved ``params``."""
    devices = system.devices
    pools = [dev.memory.stats() for dev in devices]
    wall = system.elapsed_s()
    report = {
        "version": SHARD_VERSION,
        "workload": key,
        **vars(params),
        "gpus": int(gpus),
        "classes": int(classes),
        "lr": LR,
        "graph_nodes": int(graph.num_nodes),
        "graph_edges": int(graph.num_edges),
        "train_nodes": int(sum(g.n_train for g in geoms)),
        "partition": plan.describe(),
        "plan_digest": plan_digest(plan),
        "halo_nodes": [g.n_halo for g in geoms],
        "local_nnz": [g.nnz for g in geoms],
        "kernels": int(sum(dev.stats.kernel_count for dev in devices)),
        "transfers": int(sum(dev.stats.transfer_count for dev in devices)),
        "h2d_bytes": int(sum(dev.stats.h2d_bytes for dev in devices)),
        "d2h_bytes": int(sum(dev.stats.d2h_bytes for dev in devices)),
        "halo_exchanges": int(acct.halo_exchanges),
        "halo_bytes": int(acct.halo_bytes),
        "halo_time_s": float(acct.halo_time_s),
        "allreduce_bytes": int(acct.allreduce_bytes),
        "epoch_sim_times_s": [float(t) for t in acct.epoch_times_s],
        "sim_wall_s": float(wall),
        "epochs_per_sim_s": (params.epochs / wall) if wall else 0.0,
        "peak_live_bytes": max(p["peak_live_bytes"] for p in pools),
        "peak_reserved_bytes": max(p["peak_reserved_bytes"] for p in pools),
        "hbm_utilization": max(p["utilization"] for p in pools),
        "oom_events": int(sum(p["oom_events"] for p in pools)),
        "halo_trace_digest": _halo_trace_digest(timeline),
        "losses": [float(x) for x in losses],
        "loss_final": float(losses[-1]) if losses else None,
    }
    # losses are fp64 values compared with tolerance, not digested
    report["shard_digest"] = report_digest(report, "shard_digest", "losses",
                                           "loss_final")
    return report


# -- entry points --------------------------------------------------------------


def shard_run(
    key: str,
    strict: bool = False,
    sim: Optional[SimulationConfig] = None,
    traced: bool = False,
    **params,
) -> tuple[dict, Optional[trace.Timeline]]:
    """Simulate sharded training; return (report, timeline-or-None).

    ``key`` is a shardable workload (``ARGA``) or a named configuration
    (``ARGA-P4``).  A :data:`SHARD_PARAMS` keyword the call leaves unset
    takes the named configuration's value, else its default; a value the
    call sets always wins, even one equal to a default.  ``strict=True``
    checks every launch against the GPU model's invariants and raises
    :class:`repro.gpu.memory.OOMError` the moment any device's partition
    working set exceeds its HBM capacity — the capacity-frontier probe.
    A tracer always runs internally (the halo span stream is digested into
    the report); the timeline is returned only when ``traced=True``.
    """
    key, config = resolve_shard_config(key)
    p = resolve(SHARD_PARAMS, params, config)
    p.mode = resolve_mode(p.mode, p.nodes, p.feat_dim)
    p.name = p.name or f"{key}-P{p.parts}" + ("-OFFLOAD" if p.offload else "")
    manual_seed(p.seed)
    dataset = _shard_dataset(p.nodes, p.feat_dim, p.seed)
    plan = _shard_plan(p.nodes, p.feat_dim, p.seed, p.parts)
    geoms = part_geometries(dataset.graph, plan, dataset.train_idx)
    gpus = 1 if p.offload else p.parts
    system = MultiGPUSystem(gpus, sim)
    for dev in system.devices:
        dev.memory.strict = strict
        dev.memory.clock = dev.elapsed_s
    try:
        with checking(system.devices, strict), \
                trace.session(devices=tuple(system.devices)) as tracer:
            simulate = _simulate_offload if p.offload else _simulate_parallel
            acct = simulate(system, geoms, p.feat_dim, p.hidden,
                            dataset.num_classes, p.epochs, tracer)
            timeline = tracer.timeline()
    finally:
        for dev in system.devices:
            dev.memory.strict = False
            dev.memory.clock = None
    losses = []
    if p.mode == "numeric":
        losses = train_numeric(dataset, plan, p.hidden, p.epochs, LR,
                               p.seed)["losses"]
    report = build_shard_report(key, p, gpus, dataset.num_classes,
                                dataset.graph, plan, geoms, acct, system,
                                losses, timeline)
    for dev in system.devices:
        metrics.collect_device(dev)
    metrics.collect_report("shard", report)
    return report, (timeline if traced else None)


