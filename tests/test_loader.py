"""Mini-batch loader: determinism, prefetch overlap, stall accounting, HBM."""

import json

import numpy as np
import pytest

from repro.datasets.citation import HashedFeatures, synthetic_citation
from repro.gpu import SimulatedGPU
from repro.graph import generators
from repro.profiling import trace
from repro.train.loader import (
    SAMPLE_COST_PER_BATCH_S,
    SAMPLEABLE,
    NeighborLoader,
    make_sample_engine,
    sample_run,
    sampler_cost_s,
)
from repro.train.trainer import Trainer


def _graph(seed=0, sizes=(40, 40)):
    g, _ = generators.stochastic_block_model(list(sizes), 0.2, 0.02,
                                             np.random.default_rng(seed))
    return g


class TestNeighborLoader:
    def test_epoch_order_is_permutation_of_train_ids(self):
        ids = np.arange(10, 90)
        loader = NeighborLoader(_graph(), ids, (4, 3), batch_size=16, seed=1)
        order = np.concatenate(loader.batches(epoch=0))
        np.testing.assert_array_equal(np.sort(order), ids)

    def test_epochs_shuffle_differently(self):
        loader = NeighborLoader(_graph(), np.arange(80), (4,), 16, seed=1)
        assert not np.array_equal(loader.epoch_order(0), loader.epoch_order(1))

    def test_batches_deterministic_across_instances(self):
        a = NeighborLoader(_graph(), np.arange(80), (4, 3), 16, seed=5)
        b = NeighborLoader(_graph(), np.arange(80), (4, 3), 16, seed=5)
        for x, y in zip(a.batches(2), b.batches(2)):
            np.testing.assert_array_equal(x, y)

    def test_blocks_nest_layer_to_layer(self, rng):
        loader = NeighborLoader(_graph(), np.arange(80), (6, 4, 2), 16)
        seeds = np.arange(8)
        blocks = loader.sample_blocks(seeds, rng)
        assert len(blocks) == 3
        np.testing.assert_array_equal(blocks[-1].dst_nodes, seeds)
        for outer, inner in zip(blocks, blocks[1:]):
            # inner layer's sources are exactly the outer layer's dsts
            np.testing.assert_array_equal(outer.dst_nodes, inner.src_nodes)
        # forward order: frontiers shrink toward the seeds
        assert blocks[0].num_src >= blocks[-1].num_src

    def test_sampler_cost_scales_with_edges(self, rng):
        loader = NeighborLoader(_graph(), np.arange(80), (8,), 16)
        small = loader.sample_blocks(np.arange(2), rng)
        large = loader.sample_blocks(np.arange(40), rng)
        assert sampler_cost_s(large) > sampler_cost_s(small)
        assert sampler_cost_s([]) == SAMPLE_COST_PER_BATCH_S


class TestHashedFeatures:
    def test_lazy_shape_and_determinism(self):
        feats = HashedFeatures(10**6, 64, seed=3)
        assert feats.shape == (10**6, 64)
        ids = np.array([0, 17, 999_999])
        np.testing.assert_array_equal(feats[ids], feats[ids])
        assert feats[ids].dtype == np.float32

    def test_density_roughly_honored(self):
        feats = HashedFeatures(1000, 256, density=0.05)
        block = feats[np.arange(200)]
        assert 0.03 < block.mean() < 0.07

    def test_different_seeds_differ(self):
        ids = np.arange(50)
        a = HashedFeatures(100, 32, seed=0)[ids]
        b = HashedFeatures(100, 32, seed=1)[ids]
        assert not np.array_equal(a, b)


class TestSyntheticCitation:
    def test_scales_with_capped_train_split(self):
        ds = synthetic_citation(5000, train_cap=128, seed=0)
        assert ds.graph.num_nodes == 5000
        assert ds.train_idx.size == 128
        assert ds.num_classes == 8
        assert ds.feature_dim == 128

    def test_rejects_tiny_graphs(self):
        with pytest.raises(ValueError):
            synthetic_citation(3)


class TestPrefetchPipeline:
    def test_prefetch_beats_synchronous_with_less_stall(self):
        r0, _ = sample_run("ARGA", epochs=2, prefetch_depth=0)
        r2, _ = sample_run("ARGA", epochs=2, prefetch_depth=2)
        assert r2["epochs_per_sim_s"] > r0["epochs_per_sim_s"]
        assert r2["loader_stall_s"] < r0["loader_stall_s"]
        # synchronous sampling stalls for the full sampler cost
        assert r0["loader_stall_s"] == pytest.approx(r0["sample_cost_s"])

    def test_deeper_queue_never_slower(self):
        walls = [sample_run("ARGA", epochs=1, prefetch_depth=d)[0]
                 ["sim_wall_s"] for d in (0, 1, 2)]
        assert walls[0] >= walls[1] >= walls[2]

    def test_queue_occupancy_bounded_by_depth(self):
        for depth in (1, 2, 3):
            r, _ = sample_run("ARGA", epochs=1, prefetch_depth=depth)
            assert r["queue_occupancy_max"] <= depth
            assert 0.0 <= r["queue_occupancy_mean"] <= depth

    def test_stall_breakdown_includes_loader_and_sums_to_one(self):
        r, _ = sample_run("ARGA", epochs=1, prefetch_depth=0)
        breakdown = r["stall_breakdown"]
        assert "loader_stall" in breakdown
        assert breakdown["loader_stall"] > 0
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_report_byte_identical_across_repeats(self):
        a, _ = sample_run("PSAGE-MVL", epochs=1)
        b, _ = sample_run("PSAGE-MVL", epochs=1)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_loader_spans_on_their_own_stream(self):
        r, timeline = sample_run("ARGA", epochs=1, traced=True)
        spans = [s for s in timeline.spans if s.cat == trace.CAT_LOADER]
        assert len(spans) == r["batches"]
        assert all(s.tid == "loader" for s in spans)
        # host-side sampler spans must not count toward device busy time
        assert trace.CAT_LOADER not in trace.DEVICE_CATS
        assert timeline.busy_us(spans[0].pid) / 1e6 < r["sim_wall_s"]

    def test_trainer_rejects_loader_with_capture(self, gpu):
        trainer = Trainer(workload=object(), device=gpu,
                          capture_replay=True, loader=object())
        with pytest.raises(ValueError):
            trainer.run(epochs=1)


class TestEngines:
    def test_unknown_workload_rejected(self, gpu):
        with pytest.raises(ValueError):
            make_sample_engine("TLSTM", gpu, (10, 5))
        with pytest.raises(ValueError):
            make_sample_engine("ARGA", gpu, (10, 5), scale="nope")

    def test_nodes_only_for_citation(self, gpu):
        with pytest.raises(ValueError):
            make_sample_engine("PSAGE-MVL", gpu, (10, 5), nodes=1000)

    def test_sampleable_set(self):
        assert set(SAMPLEABLE) == {"ARGA", "PSAGE-MVL", "PSAGE-NWP"}

    def test_losses_are_finite(self):
        from repro.train.loader import (
            NeighborLoader,
            PrefetchPipeline,
        )

        device = SimulatedGPU()
        engine = make_sample_engine("PSAGE-MVL", device, (4, 3))
        loader = NeighborLoader(engine.graph, engine.train_ids[:64], (4, 3),
                                batch_size=32, seed=0)
        pipeline = PrefetchPipeline(loader, engine, device, prefetch_depth=2)
        metrics = pipeline.run_epoch(0, seed=0)
        assert np.isfinite(metrics["loss"])
        assert metrics["batches"] == 2


class TestMillionNodeGraph:
    def test_million_node_epoch_fits_hbm_strict(self):
        # acceptance: a 10^6-node citation graph completes a mini-batch
        # epoch under the 16 GiB capacity model with strict OOM checking
        report, _ = sample_run("ARGA", epochs=1, nodes=1_000_000,
                               batch_size=256, strict=True)
        assert report["graph_nodes"] == 1_000_000
        assert report["oom_events"] == 0
        assert report["peak_reserved_bytes"] < 16 * 2**30
        # bounded per-step memory: nothing node-count-sized is resident
        assert report["peak_live_bytes"] < 2**30
