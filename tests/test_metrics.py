"""Unified metrics registry: series semantics, snapshot/delta, exports."""

import json

import numpy as np
import pytest

from repro.profiling import metrics
from repro.profiling.metrics import Counter, Gauge, Histogram, MetricsRegistry


@pytest.fixture
def reg() -> MetricsRegistry:
    return MetricsRegistry()


class TestPrimitives:
    def test_counter_only_goes_up(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_goes_both_ways(self):
        g = Gauge()
        g.set(10)
        g.dec(3)
        g.inc()
        assert g.value == 8.0

    def test_histogram_buckets_are_cumulative(self):
        h = Histogram(buckets=(1.0, 5.0))
        for v in (0.5, 0.7, 3.0, 100.0):
            h.observe(v)
        assert h.cumulative() == [2, 3, 4]
        assert h.count == 4
        assert h.sum == pytest.approx(104.2)


class TestRegistry:
    def test_same_name_and_labels_share_a_series(self, reg):
        reg.counter("hits", kind="a").inc()
        reg.counter("hits", kind="a").inc()
        reg.counter("hits", kind="b").inc()
        snap = reg.snapshot()
        assert snap["hits"]["series"]['{kind="a"}'] == 2.0
        assert snap["hits"]["series"]['{kind="b"}'] == 1.0

    def test_type_conflict_rejected(self, reg):
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_label_order_is_canonical(self, reg):
        reg.gauge("g", b="2", a="1").set(7)
        assert list(reg.snapshot()["g"]["series"]) == ['{a="1",b="2"}']

    def test_delta_subtracts_counters_passes_gauges(self, reg):
        reg.counter("c").inc(5)
        reg.gauge("g").set(100)
        before = reg.snapshot()
        reg.counter("c").inc(3)
        reg.gauge("g").set(42)
        delta = reg.delta(before)
        assert delta["c"]["series"][""] == 3.0
        assert delta["g"]["series"][""] == 42.0

    def test_delta_histogram_and_new_series(self, reg):
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        before = reg.snapshot()
        reg.histogram("h", buckets=(1.0,)).observe(0.2)
        reg.counter("fresh").inc(7)  # unseen in `before`: reported whole
        delta = reg.delta(before)
        assert delta["h"]["series"][""]["count"] == 1
        assert delta["h"]["series"][""]["buckets"]["1"] == 1
        assert delta["fresh"]["series"][""] == 7.0

    def test_histogram_per_bucket_view(self):
        h = Histogram(buckets=(1.0, 5.0))
        for v in (0.5, 0.7, 3.0, 100.0):
            h.observe(v)
        assert h.per_bucket() == [2, 1, 1]
        assert h.cumulative() == [2, 3, 4]

    def test_snapshot_carries_bucket_counts(self, reg):
        reg.histogram("h", buckets=(1.0, 5.0)).observe(0.5)
        reg.histogram("h", buckets=(1.0, 5.0)).observe(3.0)
        hist = reg.snapshot()["h"]["series"][""]
        assert hist["bucket_counts"] == {"1": 1, "5": 1, "+Inf": 0}
        assert hist["buckets"] == {"1": 1, "5": 2, "+Inf": 2}

    def test_delta_histogram_per_bucket_counts(self, reg):
        # serving-latency comparison: the regression shows up in exactly the
        # bucket the slow requests moved into, not just the aggregate sum
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        before = reg.snapshot()
        h.observe(0.5)
        h.observe(30.0)
        h.observe(30.0)
        delta = reg.delta(before)["lat"]["series"][""]
        assert delta["bucket_counts"] == {"0.1": 0, "1": 1, "+Inf": 2}
        assert delta["buckets"] == {"0.1": 0, "1": 1, "+Inf": 3}
        assert delta["count"] == 3
        assert delta["sum"] == pytest.approx(60.5)

    def test_delta_decumulates_old_format_snapshots(self, reg):
        # snapshots persisted before bucket_counts existed carry only the
        # cumulative buckets; delta derives the per-bucket view on the fly
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        before = reg.snapshot()
        del before["lat"]["series"][""]["bucket_counts"]
        h.observe(30.0)
        delta = reg.delta(before)["lat"]["series"][""]
        assert delta["bucket_counts"] == {"0.1": 0, "1": 0, "+Inf": 1}
        assert delta["count"] == 1


class TestExports:
    def test_json_is_canonical_and_digest_stable(self, reg):
        reg.gauge("g", device="0").set(1.5)
        first, second = reg.to_json(), reg.to_json()
        assert first == second
        assert first.endswith("\n")
        assert json.loads(first)["g"]["series"]['{device="0"}'] == 1.5
        d = reg.digest()
        reg.gauge("g", device="0").set(2.0)
        assert reg.digest() != d

    def test_prometheus_text_format(self, reg):
        reg.counter("repro_hits_total", "Cache hits", kind="warm").inc(3)
        reg.histogram("repro_lat_seconds", "Latency",
                      buckets=(0.1, 1.0), kind="t").observe(0.05)
        text = reg.to_prometheus()
        assert "# TYPE repro_hits_total counter" in text
        assert "# HELP repro_hits_total Cache hits" in text
        assert 'repro_hits_total{kind="warm"} 3' in text
        assert 'repro_lat_seconds_bucket{kind="t",le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{kind="t",le="+Inf"} 1' in text
        assert 'repro_lat_seconds_sum{kind="t"} 0.05' in text
        assert 'repro_lat_seconds_count{kind="t"} 1' in text

    def test_integers_render_without_decimal_point(self, reg):
        reg.gauge("g").set(1664)
        assert "g 1664\n" in reg.to_prometheus()


class TestCollectors:
    def test_collect_device_reads_stats_and_memory(self, gpu, reg):
        from repro.gpu import KernelDescriptor, OpClass

        gpu.launch(KernelDescriptor(name="k", op_class=OpClass.ELEMENTWISE,
                                    threads=1 << 16))
        gpu.h2d(np.ones(256, dtype=np.float32))
        gpu.memory.alloc(4096, label="x", phase="forward")
        metrics.collect_device(gpu, registry=reg)
        snap = reg.snapshot()
        dev = '{device="0"}'
        assert snap["repro_device_kernel_launches_total"]["series"][dev] == 1.0
        assert snap["repro_device_h2d_bytes_total"]["series"][dev] == 1024.0
        assert snap["repro_memory_live_bytes"]["series"][dev] == 4096.0
        phase = '{device="0",phase="forward"}'
        assert snap["repro_memory_phase_peak_bytes"]["series"][phase] == 4096.0

    def test_collect_profile_cache(self, reg):
        class FakeCache:
            hits, misses, stores = 3, 1, 2

        metrics.collect_profile_cache(FakeCache(), registry=reg)
        snap = reg.snapshot()
        assert snap["repro_profile_cache_hits_total"]["series"][""] == 3.0
        assert snap["repro_profile_cache_stores_total"]["series"][""] == 2.0

    def test_collect_loader_labels_by_depth(self, reg):
        report = {"workload": "ARGA", "prefetch_depth": 2, "batches": 60,
                  "edges_sampled": 1000, "sample_cost_s": 0.05,
                  "loader_stall_s": 0.002, "loader_stall_fraction": 0.02,
                  "queue_occupancy_mean": 1.3, "queue_occupancy_max": 2,
                  "epochs_per_sim_s": 20.0, "peak_live_bytes": 4096}
        metrics.collect_loader(report, registry=reg)
        snap = reg.snapshot()
        labels = '{prefetch_depth="2",workload="ARGA"}'
        assert snap["repro_loader_batches_total"]["series"][labels] == 60.0
        assert snap["repro_loader_stall_seconds"]["series"][labels] == 0.002
        assert (snap["repro_loader_queue_occupancy_max"]["series"][labels]
                == 2.0)
        # a different depth lands as a distinct label set, not an overwrite
        metrics.collect_loader({**report, "prefetch_depth": 0}, registry=reg)
        series = reg.snapshot()["repro_loader_batches_total"]["series"]
        assert len(series) == 2

    def test_observe_task(self, reg):
        metrics.observe_task("profile", 0.3, cached=False, registry=reg)
        metrics.observe_task("profile", 0.001, cached=True, registry=reg)
        snap = reg.snapshot()
        hist = snap["repro_task_wall_seconds"]["series"]['{kind="profile"}']
        assert hist["count"] == 2
        total = snap["repro_task_total"]["series"]
        assert total['{cached="false",kind="profile"}'] == 1.0
        assert total['{cached="true",kind="profile"}'] == 1.0

    def test_global_registry_reset(self):
        metrics.registry().counter("repro_test_scratch_total").inc()
        assert "repro_test_scratch_total" in metrics.registry().snapshot()
        metrics.reset()
        assert metrics.registry().snapshot() == {}

    def test_profile_collection_rides_along(self):
        """profile_workload absorbs its run into the global registry."""
        from repro.core import profile_workload

        metrics.reset()
        try:
            profile_workload("KGNNL", scale="test", epochs=1)
            snap = metrics.registry().snapshot()
            wl = '{workload="KGNNL"}'
            assert snap["repro_transfer_sparsity_ratio"]["series"][wl] >= 0.0
            assert any(k.startswith('{stall=')
                       for k in snap["repro_stall_share"]["series"])
            dev = '{device="0"}'
            assert snap["repro_device_kernel_launches_total"]["series"][dev] > 0
            # the profile run never drives the allocator: no memory gauges,
            # rather than gauges that read 0
            assert not [name for name in snap
                        if name.startswith("repro_memory_")]
        finally:
            metrics.reset()
