"""Mini-batch neighbor-sampled training: NeighborLoader + prefetch pipeline.

Full-graph training touches every node each epoch, which is why the suite
runs at scaled-down sizes.  This module makes graph size a free axis:

* :class:`NeighborLoader` is a seeded, CSR-native multi-layer neighbor
  sampler — per-layer fanouts produce a list of :class:`SampledBlock`\\ s per
  mini-batch, deterministic under ``default_rng([seed, epoch, batch_idx])``
  and fully vectorized (``uniform_neighbor_block`` draws one random key per
  candidate edge; no per-seed Python loop);
* :class:`PrefetchPipeline` runs the producer/consumer overlap on the
  simulated clock: a CPU-side sampler latency model charges each batch a
  cost proportional to seeds and sampled edges, a bounded queue of depth
  ``prefetch_depth`` lets sampling run ahead of device compute, and whenever
  the device drains the queue faster than the sampler fills it the wait is
  accounted as ``loader_stall`` (and appears as a ``loader`` span stream in
  the tracer).  ``prefetch_depth=0`` is the synchronous baseline: every
  batch pays the full sampler cost inline.

A sample run is a pure function of ``(key, scale, fanouts, batch_size,
prefetch_depth, epochs, nodes, seed)`` — every report field is simulated-
clock arithmetic over shape-derived quantities and seeded draws, so sample
digests are byte-identical across repeat runs, ``--jobs`` counts and
analysis-cache settings (``tests/test_sample_golden.py`` pins the matrix).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from ..canonical import report_digest
from ..core.run import workload_run
from ..graph import Graph
from ..graph.sampling import SampledBlock, uniform_neighbor_block
from ..gpu import SimulatedGPU, SimulationConfig
from ..profiling import metrics, trace
from ..profiling.table import STALL_REASONS, LaunchTable, running_total
from ..tensor import Tensor, functional as F, nn
from ..tensor.optim import Adam
from .trainer import Trainer

#: bump when the sample report changes shape
SAMPLE_VERSION = 1

#: workloads with a mini-batch sampled-training engine
SAMPLEABLE = ("ARGA", "PSAGE-MVL", "PSAGE-NWP")

#: default key set for goldens and BENCH_sample (the citation + PinSAGE
#: flagships the acceptance gate names; NWP rides along via the CLI)
SAMPLE_DEFAULT_KEYS = ("ARGA", "PSAGE-MVL")

# -- CPU-side sampler latency model (seconds) ---------------------------------
# The cost of producing one mini-batch of blocks on the host: a fixed batch
# overhead, a per-seed term (indptr lookups, queue bookkeeping) per layer
# frontier, and a per-sampled-edge term (key draws + compaction).  The edge
# count is itself a function of seeds x fanout x avg-degree, so the model is
# closed-form in the loader knobs while still charging isolated seeds less.
SAMPLE_COST_PER_BATCH_S = 50e-6
SAMPLE_COST_PER_SEED_S = 1.5e-6
SAMPLE_COST_PER_EDGE_S = 80e-9


def sampler_cost_s(blocks: list[SampledBlock]) -> float:
    """Simulated host latency to sample one mini-batch's block list."""
    cost = SAMPLE_COST_PER_BATCH_S
    for block in blocks:
        cost += block.num_dst * SAMPLE_COST_PER_SEED_S
        cost += block.edge_dst.size * SAMPLE_COST_PER_EDGE_S
    return cost


def validate_sample_config(fanouts, batch_size: int, prefetch_depth: int,
                           epochs: int) -> None:
    """Raise ``ValueError`` with a usable message on contradictory knobs."""
    if not fanouts or any(int(f) < 1 for f in fanouts):
        raise ValueError(f"fanouts must be >= 1 per layer, got {fanouts!r}")
    if batch_size < 1:
        raise ValueError(f"batch-size must be >= 1, got {batch_size}")
    if prefetch_depth < 0:
        raise ValueError(f"prefetch-depth must be >= 0, got {prefetch_depth}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")


# -- the loader ----------------------------------------------------------------


@dataclass
class NeighborLoader:
    """Seeded multi-layer neighbor sampler over one CSR graph.

    Epoch ``e`` visits a ``default_rng([seed, e])`` permutation of
    ``train_ids`` in ``batch_size`` chunks; batch ``i`` samples its blocks
    under ``default_rng([seed, e, i])``.  ``sample_blocks`` returns blocks in
    forward order — ``blocks[0]`` is the outermost (widest) frontier and
    ``blocks[-1].dst_nodes`` are the requested seeds — with the nesting
    invariant ``blocks[j].dst_nodes == blocks[j+1].src_nodes[:num_dst]``
    prefix-aligned for :class:`~repro.models.layers.SAGEConv`.
    """

    graph: Graph
    train_ids: np.ndarray
    fanouts: tuple
    batch_size: int
    seed: int = 0

    def __post_init__(self) -> None:
        self.train_ids = np.asarray(self.train_ids, dtype=np.int64)
        self.fanouts = tuple(int(f) for f in self.fanouts)

    @property
    def num_batches(self) -> int:
        return -(-self.train_ids.size // self.batch_size)

    def epoch_order(self, epoch: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, int(epoch)])
        return rng.permutation(self.train_ids)

    def batches(self, epoch: int) -> list[np.ndarray]:
        order = self.epoch_order(epoch)
        return [order[i: i + self.batch_size]
                for i in range(0, order.size, self.batch_size)]

    def batch_rng(self, epoch: int, batch_idx: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, int(epoch), int(batch_idx)])

    def sample_blocks(self, seeds: np.ndarray,
                      rng: np.random.Generator) -> list[SampledBlock]:
        blocks: list[SampledBlock] = []
        frontier = np.asarray(seeds, dtype=np.int64)
        for fanout in reversed(self.fanouts):
            block = uniform_neighbor_block(self.graph, frontier, fanout, rng)
            blocks.append(block)
            frontier = block.src_nodes
        blocks.reverse()
        return blocks


# -- per-workload mini-batch engines ------------------------------------------


class SampledSAGEModel(nn.Module):
    """Input projection + one SAGE layer per fanout + a linear head."""

    def __init__(self, in_features: int, hidden: int, out_features: int,
                 num_layers: int) -> None:
        super().__init__()
        from ..models.layers import SAGEConv

        self.input_proj = nn.Linear(in_features, hidden)
        self.convs = nn.ModuleList(
            [SAGEConv(hidden, hidden) for _ in range(num_layers)]
        )
        self.head = nn.Linear(hidden, out_features)

    def forward(self, features: Tensor, blocks: list[SampledBlock]) -> Tensor:
        """``features``: rows aligned with ``blocks[0].src_nodes``."""
        h = F.relu(self.input_proj(features))
        for conv, block in zip(self.convs, blocks):
            h = F.relu(conv(block, h))
        return self.head(h)


class CitationSampleEngine:
    """Mini-batch node classification on a (possibly huge) citation graph."""

    def __init__(self, dataset, device, fanouts, hidden: int = 32,
                 lr: float = 1e-2) -> None:
        self.dataset = dataset
        self.graph = dataset.graph
        self.train_ids = np.asarray(dataset.train_idx, dtype=np.int64)
        self.labels = dataset.labels
        self.device = device
        self.model = SampledSAGEModel(dataset.feature_dim, hidden,
                                      dataset.num_classes, len(fanouts))
        if device is not None:
            self.model.to(device)
        self.optimizer = Adam(self.model.parameters(), lr=lr)

    def prepare_batch(self, seeds: np.ndarray, rng: np.random.Generator):
        return seeds, seeds

    def run_batch(self, blocks: list[SampledBlock], ctx,
                  rng: np.random.Generator) -> float:
        feats = np.ascontiguousarray(
            self.dataset.features[blocks[0].src_nodes], dtype=np.float32
        )
        _stage_h2d(self.device, feats, blocks)
        x = Tensor(feats, device=self.device, _skip_copy=True)
        self.optimizer.zero_grad()
        logits = self.model(x, blocks)
        loss = F.cross_entropy(logits, self.labels[ctx])
        loss.backward()
        self.optimizer.step()
        return float(loss.item())


class PinSAGESampleEngine:
    """Mini-batch margin-ranking training on the item co-interaction graph."""

    def __init__(self, dataset, device, fanouts, hidden: int = 16,
                 lr: float = 1e-3) -> None:
        self.dataset = dataset
        self.graph = dataset.graph.bipartite_projection(
            via=("item", "watched-by", "user"),
            back=("user", "watched", "item"),
        )
        self.train_ids = np.arange(self.graph.num_nodes, dtype=np.int64)
        self.device = device
        self.model = SampledSAGEModel(dataset.feature_dim, hidden, hidden,
                                      len(fanouts))
        if device is not None:
            self.model.to(device)
        self.optimizer = Adam(self.model.parameters(), lr=lr)

    def prepare_batch(self, seeds: np.ndarray, rng: np.random.Generator):
        """(unique heads, (inverse, n)): seeds + positives + negatives.

        Positives are one co-interaction in-neighbor per seed (isolated
        items fall back to themselves, so the dst slot survives); negatives
        are uniform random items — `PinSAGEWorkload.sample_pairs` semantics
        under per-batch seeding.
        """
        csr = self.graph.csr()
        # O(seeds) reads: only the seeds' indptr entries are widened
        lo = csr.indptr[seeds].astype(np.int64)
        deg = csr.indptr[seeds + 1].astype(np.int64) - lo
        if csr.indices.size:
            draw = lo + np.floor(
                rng.random(seeds.size) * np.maximum(deg, 1)
            ).astype(np.int64)
            picks = csr.indices[
                np.minimum(draw, csr.indices.size - 1)].astype(np.int64)
            pos = np.where(deg > 0, picks, seeds)
        else:
            pos = seeds
        neg = rng.integers(0, self.graph.num_nodes, size=seeds.size)
        heads = np.concatenate([seeds, pos, neg])
        uniq, inverse = np.unique(heads, return_inverse=True)
        return uniq, (inverse, seeds.size)

    def run_batch(self, blocks: list[SampledBlock], ctx,
                  rng: np.random.Generator) -> float:
        inverse, n = ctx
        feats = np.ascontiguousarray(
            self.dataset.item_features[blocks[0].src_nodes], dtype=np.float32
        )
        _stage_h2d(self.device, feats, blocks)
        x = Tensor(feats, device=self.device, _skip_copy=True)
        self.optimizer.zero_grad()
        emb = self.model(x, blocks)
        emb_seed = F.index_select(emb, inverse[:n])
        emb_pos = F.index_select(emb, inverse[n: 2 * n])
        emb_neg = F.index_select(emb, inverse[2 * n:])
        pos_score = F.sum(emb_seed * emb_pos, axis=1)
        neg_score = F.sum(emb_seed * emb_neg, axis=1)
        loss = F.margin_ranking_loss(pos_score, neg_score, margin=1.0)
        loss.backward()
        self.optimizer.step()
        return float(loss.item())


def _stage_h2d(device, feats: np.ndarray, blocks: list[SampledBlock]) -> None:
    """Stage one batch's features + block edges through the H2D path.

    Per-batch arrays register with the active device-memory tracker (the
    `_transfer` hook), so peak HBM reflects only the resident mini-batch —
    the bounded-per-step-memory property the loader exists to provide.
    """
    if device is None:
        return
    device.h2d(feats, "loader.features")
    for i, block in enumerate(blocks):
        device.h2d(block.edge_src, f"loader.block{i}")


@lru_cache(maxsize=None)
def _synthetic_citation(nodes: int, seed: int):
    from ..datasets.citation import synthetic_citation

    return synthetic_citation(nodes, seed=seed)


#: per-scale engine hidden widths (test mirrors the registry's test configs)
_SCALE_HIDDEN = {"test": 16, "profile": 64, "scaling": 64}


def make_sample_engine(key: str, device, fanouts, scale: str = "test",
                       nodes: Optional[int] = None, seed: int = 0):
    """Build the mini-batch engine for ``key`` (SAMPLEABLE workloads only)."""
    from ..core import registry

    if key not in SAMPLEABLE:
        raise ValueError(
            f"workload {key!r} has no mini-batch sampling engine; sampleable "
            f"workloads: {sorted(SAMPLEABLE)}"
        )
    if scale not in _SCALE_HIDDEN:
        raise ValueError(f"scale must be one of {sorted(_SCALE_HIDDEN)}, "
                         f"got {scale!r}")
    hidden = _SCALE_HIDDEN[scale]
    if key == "ARGA":
        if nodes is not None:
            dataset = _synthetic_citation(int(nodes), int(seed))
        else:
            dataset = registry._citation("cora")
        return CitationSampleEngine(dataset, device, fanouts, hidden=hidden)
    if nodes is not None:
        raise ValueError("--nodes only applies to the citation workload "
                         "(ARGA); PinSAGE samples its fixed item graph")
    dataset = (registry._movielens() if key == "PSAGE-MVL"
               else registry._nowplaying())
    return PinSAGESampleEngine(dataset, device, fanouts, hidden=hidden)


# -- the prefetch pipeline -----------------------------------------------------


@dataclass
class LoaderStats:
    """Cumulative producer/consumer accounting across epochs."""

    batches: int = 0
    edges_sampled: int = 0
    sample_cost_s: float = 0.0
    stall_s: float = 0.0
    #: integral of (batches sitting ready in the queue) over simulated time
    queue_time_s: float = 0.0
    queue_max: int = 0
    wall_s: float = 0.0

    def occupancy_mean(self) -> float:
        return self.queue_time_s / self.wall_s if self.wall_s else 0.0


@dataclass
class PrefetchPipeline:
    """Bounded-queue producer/consumer loop on the simulated clock.

    Per batch ``i`` (simulated seconds): the sampler may start once the
    previous batch is produced *and* a queue slot is free —
    ``sample_start_i = max(ready_{i-1}, pop_{i - depth})`` — and finishes at
    ``ready_i = sample_start_i + cost_i``.  The device consumes at
    ``start_i = max(device_clock, ready_i)``; any positive gap is
    ``loader_stall``, charged by jumping both device clocks forward (the
    idiom `repro.serve.BatchRunner` uses for idle gaps).  With
    ``prefetch_depth=0`` the sampler is synchronous: it only starts when the
    device asks, so every batch stalls for its full sampler cost.  Each
    batch's launch table is reduced into :attr:`stalls` as the batch ends.
    """

    loader: NeighborLoader
    engine: object
    device: SimulatedGPU
    prefetch_depth: int = 2
    stats: LoaderStats = field(default_factory=LoaderStats)
    stalls: _StallAccumulator = field(
        default_factory=lambda: _StallAccumulator())

    def run_epoch(self, epoch: int, seed: int = 0) -> dict[str, float]:
        device = self.device
        tracer = trace.active()
        pid = device.device_id if device is not None else 0
        batches = self.loader.batches(epoch)
        t0 = device.elapsed_s()
        ready_prev = t0
        pop_times: list[float] = []
        ready_times: list[float] = []
        losses: list[float] = []
        epoch_stall = epoch_cost = 0.0
        for i, seeds in enumerate(batches):
            rng = self.loader.batch_rng(epoch, i)
            heads, ctx = self.engine.prepare_batch(seeds, rng)
            blocks = self.loader.sample_blocks(heads, rng)
            cost = sampler_cost_s(blocks)
            request = device.elapsed_s()
            if self.prefetch_depth <= 0:
                sample_start = request
            else:
                sample_start = ready_prev
                if i >= self.prefetch_depth:
                    sample_start = max(sample_start,
                                       pop_times[i - self.prefetch_depth])
            ready = sample_start + cost
            start = max(request, ready)
            stall = start - request
            # the device waited on the sampler: advance both clocks
            device.clock_s = start
            device.host_clock_s = start
            if tracer is not None:
                tracer.add_span(
                    f"sample b{i}", trace.CAT_LOADER, pid, "loader",
                    sample_start, ready,
                    {"batch": i, "seeds": int(seeds.size),
                     "edges": int(sum(b.edge_dst.size for b in blocks)),
                     "cost_us": cost * 1e6, "stall_us": stall * 1e6},
                )
            with device.observe() as window:
                losses.append(self.engine.run_batch(blocks, ctx, rng))
            self.stalls.on_launch(LaunchTable.of(window.entries()))
            pop_times.append(start)
            ready_times.append(ready)
            ready_prev = ready
            epoch_stall += stall
            epoch_cost += cost
            self.stats.edges_sampled += int(
                sum(b.edge_dst.size for b in blocks))
        wall = device.elapsed_s() - t0
        self._account_queue(ready_times, pop_times, wall)
        self.stats.batches += len(batches)
        self.stats.sample_cost_s += epoch_cost
        self.stats.stall_s += epoch_stall
        self.stats.wall_s += wall
        return {
            "loss": float(np.mean(losses)) if losses else 0.0,
            "loader_stall_s": epoch_stall,
            "sample_cost_s": epoch_cost,
            "batches": float(len(batches)),
        }

    def _account_queue(self, ready: list[float], pop: list[float],
                       wall: float) -> None:
        # occupancy integral: each batch sits in the queue from ready to pop
        self.stats.queue_time_s += sum(
            max(0.0, p - r) for r, p in zip(ready, pop))
        # peak concurrent ready-but-unconsumed batches via an event sweep
        # (pops sort before pushes at equal timestamps: a batch consumed the
        # instant it lands never occupies a slot)
        events = sorted([(t, 1) for t in ready] + [(t, -1) for t in pop])
        depth = 0
        for _, delta in events:
            depth += delta
            self.stats.queue_max = max(self.stats.queue_max, depth)


# -- stall accounting ----------------------------------------------------------


class _StallAccumulator:
    """Duration-weighted per-kernel stall shares of the batches' launches.

    `attribute()` stays a pure memoized per-descriptor function; this
    reduces each batch's launch table to kernel time and the time each
    stall reason takes of it, so the report can fold in ``loader_stall`` at
    the wall-clock level without touching the frozen seven-field
    :class:`~repro.gpu.kernel.StallBreakdown`.
    """

    def __init__(self) -> None:
        self.launches = 0
        self.busy_s = 0.0
        #: per stall reason (STALL_REASONS order), its share times duration
        self.weighted = np.zeros(len(STALL_REASONS))

    def on_launch(self, table: LaunchTable) -> None:
        """Fold a launch table's kernel time and stall time, in launch
        order."""
        duration = table.duration_s
        self.launches += len(table)
        self.busy_s = running_total(self.busy_s, duration)
        self.weighted = running_total(self.weighted,
                                      table.stalls * duration[:, None])

    def breakdown(self, loader_stall_s: float, wall_s: float) -> dict:
        """The seven nvprof categories renormalized over the non-loader
        share of the wall clock, plus ``loader_stall`` itself."""
        loader_share = (min(1.0, loader_stall_s / wall_s)
                        if wall_s > 0 else 0.0)
        out = {}
        weighted = dict(zip(STALL_REASONS, self.weighted.tolist()))
        for name in sorted(weighted) if self.launches else ():
            kernel_share = (weighted[name] / self.busy_s
                            if self.busy_s > 0 else 0.0)
            out[name] = kernel_share * (1.0 - loader_share)
        out["loader_stall"] = loader_share
        return out


# -- reporting -----------------------------------------------------------------


def build_sample_report(
    key: str, scale: str, fanouts, batch_size: int, prefetch_depth: int,
    epochs: int, nodes: Optional[int], seed: int, engine,
    pipeline: PrefetchPipeline, results, device: SimulatedGPU,
    memory_stats: dict,
) -> dict:
    """Canonical sample report — every field exact-deterministic."""
    stats = pipeline.stats
    wall = sum(r.sim_time_s for r in results)
    report = {
        "version": SAMPLE_VERSION,
        "workload": key,
        "scale": scale,
        "fanouts": [int(f) for f in fanouts],
        "batch_size": int(batch_size),
        "prefetch_depth": int(prefetch_depth),
        "epochs": int(epochs),
        "nodes": None if nodes is None else int(nodes),
        "seed": int(seed),
        "graph_nodes": int(engine.graph.num_nodes),
        "graph_edges": int(engine.graph.num_edges),
        "train_seeds": int(engine.train_ids.size),
        "batches": stats.batches,
        "batches_per_epoch": pipeline.loader.num_batches,
        "edges_sampled": stats.edges_sampled,
        "sample_cost_s": stats.sample_cost_s,
        "loader_stall_s": stats.stall_s,
        "loader_stall_fraction": (stats.stall_s / wall) if wall else 0.0,
        "queue_occupancy_mean": stats.occupancy_mean(),
        "queue_occupancy_max": stats.queue_max,
        "epoch_sim_times_s": [r.sim_time_s for r in results],
        "sim_wall_s": wall,
        "epochs_per_sim_s": (len(results) / wall) if wall else 0.0,
        "kernels": int(device.stats.kernel_count),
        "h2d_bytes": int(device.stats.h2d_bytes),
        "stall_breakdown": pipeline.stalls.breakdown(stats.stall_s, wall),
        "peak_live_bytes": memory_stats["peak_live_bytes"],
        "peak_reserved_bytes": memory_stats["peak_reserved_bytes"],
        "hbm_utilization": memory_stats["utilization"],
        "oom_events": memory_stats["oom_events"],
    }
    report["sample_digest"] = report_digest(report, "sample_digest")
    return report


# -- trace integration ---------------------------------------------------------
# Loader spans are emitted inline by PrefetchPipeline.run_epoch (the sampler
# runs on the host timeline, so span starts are already monotone per stream);
# CAT_LOADER is deliberately outside trace.DEVICE_CATS — sampling overlaps
# device compute and must not count toward device busy time.


# -- entry points --------------------------------------------------------------


def sample_run(
    key: str,
    scale: str = "test",
    fanouts=(10, 5),
    batch_size: int = 64,
    prefetch_depth: int = 2,
    epochs: int = 2,
    nodes: Optional[int] = None,
    seed: int = 0,
    strict: bool = False,
    sim: Optional[SimulationConfig] = None,
    traced: bool = False,
) -> tuple[dict, Optional[trace.Timeline]]:
    """Simulate mini-batch sampled training; return (report, timeline-or-None).

    Runs on the run harness (:func:`repro.core.run.workload_run`) under
    device-memory tracking with the cyclic GC suspended, so the report is
    a byte-deterministic function of its arguments.  ``strict`` checks
    every launch against the GPU model's invariants and makes an HBM
    overflow raise.
    """
    fanouts = tuple(int(f) for f in fanouts)
    validate_sample_config(fanouts, batch_size, prefetch_depth, epochs)
    with workload_run(lambda device: make_sample_engine(
            key, device, fanouts, scale=scale, nodes=nodes, seed=seed),
            seed, sim, memory=True, strict=strict,
            observe=trace.Tracer if traced else None) as run:
        engine = run.workload
        loader = NeighborLoader(engine.graph, engine.train_ids, fanouts,
                                batch_size, seed=seed)
        pipeline = PrefetchPipeline(loader, engine, run.device,
                                    prefetch_depth=prefetch_depth)
        results = Trainer(workload=engine, device=run.device,
                          loader=pipeline).run(epochs=epochs, seed=seed)
        memory_stats = run.device.memory.stats()

    report = build_sample_report(key, scale, fanouts, batch_size,
                                 prefetch_depth, epochs, nodes, seed, engine,
                                 pipeline, results, run.device, memory_stats)
    metrics.collect_report("loader", report)
    return report, run.tracer.timeline() if traced else None
