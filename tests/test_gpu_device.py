"""SimulatedGPU device behaviour: clocks, the event log, transfers."""

import numpy as np
import pytest

from repro.gpu import KernelDescriptor, OpClass, SimulatedGPU


def _desc(threads=1 << 16, **kw):
    base = dict(name="k", op_class=OpClass.ELEMENTWISE, threads=threads,
                bytes_read=float(threads * 4), bytes_written=float(threads * 4))
    base.update(kw)
    return KernelDescriptor(**base)


class TestClocks:
    def test_clock_advances_per_launch(self, gpu):
        t0 = gpu.elapsed_s()
        gpu.launch(_desc())
        assert gpu.elapsed_s() > t0

    def test_async_launches_absorb_overhead(self):
        """Big kernels hide the host enqueue cost (CUDA streams)."""
        gpu = SimulatedGPU()
        big = _desc(threads=1 << 22, bytes_read=float(512 << 20),
                    bytes_written=float(128 << 20))
        for _ in range(10):
            gpu.launch(big)
        # gaps only on the first launch; the rest enqueue while GPU is busy
        assert gpu.stats.launch_overhead_s < 2 * gpu.sim.device.kernel_launch_overhead_s

    def test_tiny_kernels_are_launch_bound(self):
        gpu = SimulatedGPU()
        tiny = _desc(threads=32, bytes_read=128.0, bytes_written=128.0)
        for _ in range(100):
            gpu.launch(tiny)
        # host enqueue (4us each) dominates these sub-2us kernels
        assert gpu.stats.launch_overhead_s > 0.5 * 100 * gpu.sim.device.kernel_launch_overhead_s

    def test_reset_clears_everything(self, gpu):
        gpu.launch(_desc())
        gpu.h2d(np.zeros(10), "x")
        gpu.reset()
        assert gpu.elapsed_s() == 0.0
        assert gpu.host_clock_s == 0.0
        assert gpu.stats.kernel_count == 0
        assert gpu.stats.transfer_count == 0


class TestTransfers:
    def test_h2d_measures_sparsity(self, gpu):
        arr = np.array([0.0, 1.0, 0.0, 0.0], dtype=np.float32)
        record = gpu.h2d(arr, "test")
        assert record.sparsity == pytest.approx(0.75)
        assert record.nbytes == 16

    def test_dense_array_zero_sparsity(self, gpu):
        record = gpu.h2d(np.ones(100, dtype=np.float32))
        assert record.sparsity == 0.0

    def test_int_arrays_counted_too(self, gpu):
        record = gpu.h2d(np.array([0, 5, 0], dtype=np.int64))
        assert record.sparsity == pytest.approx(2 / 3)

    @pytest.mark.parametrize("values", [
        np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-45, -1e-45, 2.5, 0.0],
                 dtype=np.float32),
        np.array([[0.0, -0.0, np.nan], [np.inf, -np.inf, 5e-324],
                  [-5e-324, 1e-310, 0.0]], dtype=np.float64),
        np.array([True, False, False, True, False]),
        np.array([0, -3, 0, 7, 0, 0], dtype=np.int32),
        np.array([[0, 1], [0, 0]], dtype=np.uint8),
    ], ids=["float32", "float64", "bool", "int32", "uint8"])
    def test_zero_count_matches_count_nonzero(self, gpu, values):
        # -0.0 counts as zero; NaN, inf and subnormals do not
        record = gpu.h2d(values)
        assert record.num_zeros == values.size - np.count_nonzero(values)
        assert record.num_values == values.size

    def test_transfer_duration_scales_with_bytes(self, gpu):
        small = gpu.h2d(np.zeros(1 << 10, dtype=np.float32))
        large = gpu.h2d(np.zeros(1 << 22, dtype=np.float32))
        assert large.duration_s > small.duration_s

    def test_d2h_direction_recorded(self, gpu):
        record = gpu.d2h(np.zeros(4))
        assert record.direction == "d2h"
        assert gpu.stats.d2h_bytes == 32


class TestListeners:
    """Observation through the device's event log, which replaced the
    per-launch listener lists."""

    def test_event_log_sees_every_kernel(self, gpu):
        with gpu.observe() as window:
            first = gpu.launch(_desc())
            gpu.launch(_desc())
        launches = window.entries()
        assert [e[0] for e in launches] == ["K", "K"]
        assert launches[0][1] == 0 and launches[1][1] == 1
        # the entry holds what the returned envelope was built from
        _, launch_id, start, desc, record = launches[0]
        assert (launch_id, start, desc) == (first.launch_id, first.start_s,
                                            first.descriptor)
        assert record is first.record
        assert record.timing.duration_s == first.duration_s

    def test_removed_listener_stops_receiving(self, gpu):
        with gpu.observe() as window:
            assert gpu.log is window.log
        assert gpu.log is None
        gpu.launch(_desc())
        assert window.entries() == []

    def test_nested_windows_share_one_log(self, gpu):
        with gpu.observe() as outer:
            gpu.launch(_desc())
            with gpu.observe() as inner:
                assert inner.log is outer.log
                gpu.launch(_desc())
            assert gpu.log is outer.log
            gpu.launch(_desc())
        assert [e[1] for e in outer.entries()] == [0, 1, 2]
        assert [e[1] for e in inner.entries()] == [1]
        assert gpu.log is None

    def test_transfer_listener(self, gpu):
        with gpu.observe() as window:
            record = gpu.h2d(np.zeros(8))
        # unlabelled copies default to their direction, never ""
        assert window.entries() == [("T", record)]
        assert record.label == "h2d"

    def test_reset_clears_listeners_and_site_memo(self, gpu):
        """An observer left open (or leaked) before reset must not leak into
        the next measurement run on a reused device."""
        window = gpu.observe().__enter__()
        gpu.checker = lambda entry: None
        gpu.site_records[("stale",)] = ("whatever",)
        gpu.reset()
        assert gpu.log is None and gpu.checker is None
        assert gpu.site_records == {}
        gpu.launch(_desc())
        gpu.h2d(np.zeros(8))
        assert window.entries() == []

    def test_override_toggle_resets_analysis_counters(self, gpu):
        """Hit/miss telemetry sampled with the cache on must not bleed into
        a run measured with it off (and vice versa)."""
        from repro.gpu import analysis_cache

        with analysis_cache.override(True):
            gpu.launch(_desc())
            gpu.launch(_desc())
            assert gpu.stats.analysis_hits + gpu.stats.analysis_misses == 2
            with analysis_cache.override(not analysis_cache.enabled()):
                # effective setting flipped: counters start from zero
                assert gpu.stats.analysis_hits == 0
                assert gpu.stats.analysis_misses == 0
                gpu.launch(_desc())
                assert gpu.stats.analysis_hits + gpu.stats.analysis_misses == 1
                with analysis_cache.override(analysis_cache.enabled()):
                    # redundant override (same effective value): no reset
                    assert (gpu.stats.analysis_hits
                            + gpu.stats.analysis_misses == 1)


class TestStats:
    def test_flop_accounting(self, gpu):
        gpu.launch(_desc(fp32_flops=1e6, int32_iops=2e6))
        assert gpu.stats.fp32_flops == pytest.approx(1e6)
        assert gpu.stats.int32_iops == pytest.approx(2e6)

    def test_kernel_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            KernelDescriptor(name="bad", op_class=OpClass.GEMM, threads=0)

    def test_launch_metrics_attached(self, gpu):
        launch = gpu.launch(_desc())
        assert launch.duration_s > 0
        assert launch.stalls.total() == pytest.approx(1.0)
        assert 0 <= launch.memory.l1_hit_rate <= 1
        assert launch.gflops >= 0
