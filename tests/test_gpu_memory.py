"""Caching HBM allocator and device-memory tracker behaviour."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import SimulatedGPU
from repro.gpu.memory import (
    LARGE_BLOCK_QUANTUM,
    SMALL_BLOCK_QUANTUM,
    SMALL_POOL_LIMIT,
    DeviceMemoryTracker,
    MemoryPool,
    OOMError,
    round_block,
    track,
)

CAP = 1 << 30  # 1 GiB — ample for every generated sequence


class TestRoundBlock:
    def test_minimum_is_one_quantum(self):
        assert round_block(1) == SMALL_BLOCK_QUANTUM

    def test_small_pool_quantum(self):
        assert round_block(SMALL_BLOCK_QUANTUM + 1) == 2 * SMALL_BLOCK_QUANTUM

    def test_large_pool_quantum(self):
        block = round_block(SMALL_POOL_LIMIT + 1)
        assert block % LARGE_BLOCK_QUANTUM == 0

    @given(st.integers(min_value=1, max_value=1 << 28))
    @settings(max_examples=200, deadline=None)
    def test_covers_and_is_idempotent(self, nbytes):
        block = round_block(nbytes)
        assert block >= nbytes
        quantum = (SMALL_BLOCK_QUANTUM if nbytes < SMALL_POOL_LIMIT
                   else LARGE_BLOCK_QUANTUM)
        assert block % quantum == 0
        assert round_block(block) == block


# an op sequence: positive = alloc that many bytes, negative = free the
# (|n| mod live)-th oldest live block — deterministic for a given list
op_sequences = st.lists(
    st.integers(min_value=-100, max_value=1 << 22).filter(lambda n: n != 0),
    min_size=1, max_size=80,
)


def _replay(pool: MemoryPool, ops, check=None):
    live: list[tuple[int, int]] = []  # (block, requested)
    for op in ops:
        if op > 0:
            live.append((pool.alloc(op), op))
        elif live:
            block, requested = live.pop(abs(op) % len(live))
            pool.free(block, requested)
        if check is not None:
            check(pool)
    return live


class TestPoolInvariants:
    @given(op_sequences)
    @settings(max_examples=100, deadline=None)
    def test_live_le_reserved_le_peaks(self, ops):
        pool = MemoryPool(CAP)

        def check(p):
            assert 0 <= p.live_bytes <= p.reserved_bytes
            assert p.live_bytes <= p.peak_live_bytes
            assert p.reserved_bytes <= p.peak_reserved_bytes
            assert p.peak_live_bytes <= p.peak_reserved_bytes
            assert 0.0 <= p.fragmentation() <= 1.0
            assert 0.0 <= p.internal_fragmentation() < 1.0

        _replay(pool, ops, check)

    @given(op_sequences, st.integers(min_value=1, max_value=1 << 22))
    @settings(max_examples=100, deadline=None)
    def test_free_after_alloc_restores_live(self, ops, nbytes):
        pool = MemoryPool(CAP)
        _replay(pool, ops)
        live_before = pool.live_bytes
        reserved_before = pool.reserved_bytes
        block = pool.alloc(nbytes)
        assert pool.live_bytes == live_before + block
        pool.free(block, nbytes)
        assert pool.live_bytes == live_before
        # freed blocks stay cached: the footprint never shrinks on free
        assert pool.reserved_bytes >= reserved_before

    @given(op_sequences, st.integers(min_value=1, max_value=1 << 22))
    @settings(max_examples=100, deadline=None)
    def test_reuse_never_grows_reserved(self, ops, nbytes):
        """When a cached block of the right bucket exists, allocation must
        come from the cache — reserved bytes stay put."""
        pool = MemoryPool(CAP)
        _replay(pool, ops)
        # guarantee a fitting cached block regardless of the op sequence
        pool.free(pool.alloc(nbytes), nbytes)
        assert pool.cached_blocks(nbytes) > 0
        reserved = pool.reserved_bytes
        reuses = pool.bucket_reuse_count
        pool.alloc(nbytes)
        assert pool.reserved_bytes == reserved
        assert pool.bucket_reuse_count == reuses + 1

    @given(op_sequences)
    @settings(max_examples=100, deadline=None)
    def test_counts_balance(self, ops):
        pool = MemoryPool(CAP)
        live = _replay(pool, ops)
        assert pool.alloc_count == pool.free_count + len(live)
        assert pool.segment_allocs + pool.bucket_reuse_count == pool.alloc_count

    def test_trim_releases_cached_blocks_only(self):
        pool = MemoryPool(CAP)
        keep = pool.alloc(4096)
        dead = pool.alloc(8192)
        pool.free(dead, 8192)
        freed = pool.trim()
        assert freed == round_block(8192)
        assert pool.reserved_bytes == pool.live_bytes == keep
        assert pool.cached_blocks(8192) == 0

    def test_epoch_watermarks_record_interval_peaks(self):
        pool = MemoryPool(CAP)
        a = pool.alloc(1 << 20)
        pool.free(a, 1 << 20)
        pool.end_epoch()
        pool.alloc(1 << 10)
        pool.end_epoch()
        assert pool.epoch_watermarks[0] == round_block(1 << 20)
        assert pool.epoch_watermarks[1] == round_block(1 << 10)

    def test_reset_restores_pristine_state(self):
        pool = MemoryPool(CAP)
        pool.free(pool.alloc(4096), 4096)
        pool.reset()
        assert pool.stats() == MemoryPool(CAP).stats()


class TestOOM:
    def test_warns_once_and_records_event(self):
        pool = MemoryPool(capacity_bytes=1024)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pool.alloc(4096, label="big", phase="forward")
            pool.alloc(4096)
        assert len(pool.oom_events) == 2
        assert len(caught) == 1  # warn once, record every violation
        event = pool.oom_events[0]
        assert event.label == "big" and event.phase == "forward"
        assert event.reserved_bytes > event.capacity_bytes

    def test_strict_raises(self):
        pool = MemoryPool(capacity_bytes=1024)
        pool.strict = True
        with pytest.raises(OOMError):
            pool.alloc(1 << 20, label="huge")

    def test_reuse_never_ooms(self):
        """Serving from the cache adds no footprint, so it can't violate
        capacity even when the pool is full."""
        block = round_block(1024)
        pool = MemoryPool(capacity_bytes=block)
        pool.free(pool.alloc(1024), 1024)
        pool.strict = True
        pool.alloc(1024)  # must not raise
        assert not pool.oom_events


class TestTracker:
    def test_track_installs_and_uninstalls(self, gpu):
        from repro.gpu import memory

        assert memory.active() is None
        with track(gpu) as tracker:
            assert memory.active() is tracker
        assert memory.active() is None

    def test_nested_track_rejected(self, gpu):
        with track(gpu):
            with pytest.raises(RuntimeError):
                with track(gpu):
                    pass

    def test_views_never_double_count(self, gpu):
        with track(gpu) as tracker:
            base = np.ones(1024, dtype=np.float32)
            tracker.register(base, label="x")
            live = gpu.memory.live_bytes
            tracker.register(base[10:20], label="view")
            tracker.register(base.reshape(32, 32), label="reshape")
            assert gpu.memory.live_bytes == live
            assert gpu.memory.alloc_count == 1

    def test_finalizer_frees_on_buffer_death(self, gpu):
        with track(gpu) as tracker:
            buf = np.ones(4096, dtype=np.float32)
            tracker.register(buf, label="x")
            assert gpu.memory.live_bytes > 0
            del buf
            assert gpu.memory.live_bytes == 0
            assert gpu.memory.free_count == 1

    def test_closed_tracker_ignores_late_finalizers(self, gpu):
        with track(gpu) as tracker:
            buf = np.ones(4096, dtype=np.float32)
            tracker.register(buf, label="x")
        free_count = gpu.memory.free_count
        del buf  # fires after close(): must be a no-op
        assert gpu.memory.free_count == free_count

    def test_h2d_registers_through_device(self, gpu):
        with track(gpu):
            staged = np.ones(1024, dtype=np.float32)
            gpu.h2d(staged, "input")
            assert gpu.memory.live_bytes == round_block(staged.nbytes)
            assert "input" in gpu.memory.label_stats

    def test_track_resets_pool_on_entry(self, gpu):
        gpu.memory.alloc(4096)
        with track(gpu):
            assert gpu.memory.live_bytes == 0

    def test_strict_flag_scoped_to_block(self, gpu):
        with track(gpu, strict=True):
            assert gpu.memory.strict
        assert not gpu.memory.strict

    def test_zero_size_buffers_ignored(self, gpu):
        with track(gpu) as tracker:
            tracker.register(np.empty(0, dtype=np.float32), label="empty")
            assert gpu.memory.alloc_count == 0

    def test_report_digest_excludes_itself(self, gpu):
        from repro.canonical import report_digest

        with track(gpu) as tracker:
            tracker.register(np.ones(256, dtype=np.float32), label="x")
            report = tracker.report()
        assert report["memory_digest"] == report_digest(report,
                                                        "memory_digest")
        assert report["top_labels"][0][0] == "x"

    def test_counter_sink_sees_allocs_and_frees(self, gpu):
        samples = []
        with track(gpu) as tracker:
            tracker.set_counter_sink(
                lambda clock, live, reserved: samples.append((live, reserved)))
            buf = np.ones(4096, dtype=np.float32)
            tracker.register(buf, label="x")
            del buf
        block = round_block(4096 * 4)  # fp32 elements
        assert samples == [(0, 0), (block, block), (0, block)]


class TestTensorLifecycle:
    def test_training_allocations_attributed_by_phase(self, gpu):
        """One tiny real training step: every phase shows up in the
        watermarks and optimizer state is labelled."""
        from repro.core import characterize

        report = characterize.measure_memory("KGNNL", scale="test", epochs=1)
        assert set(report["phase_watermarks"]) >= {"setup", "forward",
                                                   "backward", "optimizer"}
        labels = {name for name, _, _ in report["top_labels"]}
        assert "activation" in labels
        assert "saved_activation" in labels
        assert report["peak_live_bytes"] <= report["peak_reserved_bytes"]
        assert report["epoch_watermarks"] == [report["peak_live_bytes"]]
