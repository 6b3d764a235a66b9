"""Profiling toolchain: nvprof-style collection, NVBit divergence,
transfer-sparsity tracking, report rendering."""

import numpy as np
import pytest

from repro.gpu import (
    AccessPattern,
    KernelDescriptor,
    OpClass,
    SimulatedGPU,
)
from repro.profiling import (
    DivergenceInstrument,
    KernelProfiler,
    LaunchTable,
    SparsityTracker,
    format_scaling,
    format_series,
    format_table,
)


def _desc(name="k", op_class=OpClass.ELEMENTWISE, threads=1 << 14, **kw):
    base = dict(name=name, op_class=op_class, threads=threads,
                bytes_read=float(threads * 4), bytes_written=float(threads * 4),
                fp32_flops=float(threads), int32_iops=float(threads * 4))
    base.update(kw)
    return KernelDescriptor(**base)


def _launched(gpu, *descs) -> list[tuple]:
    """The event-log entries of launching ``descs`` on ``gpu``."""
    with gpu.observe() as window:
        for desc in descs:
            gpu.launch(desc)
    return window.entries()


def _copied(gpu, *arrays, direction="h2d") -> list[tuple]:
    """The event-log entries of copying ``arrays`` (or (array, label))."""
    with gpu.observe() as window:
        for item in arrays:
            array, label = item if isinstance(item, tuple) else (item, "")
            getattr(gpu, direction)(array, label)
    return window.entries()


def _profile(gpu, *descs) -> KernelProfiler:
    profiler = KernelProfiler()
    profiler.on_launch(LaunchTable.of(_launched(gpu, *descs)))
    return profiler


def _sparsity(entries) -> SparsityTracker:
    tracker = SparsityTracker()
    tracker.on_transfer(LaunchTable.of(entries))
    return tracker


def _divergence(gpu, *descs) -> DivergenceInstrument:
    inst = DivergenceInstrument()
    inst.on_launch(LaunchTable.of(_launched(gpu, *descs)))
    return inst


class TestKernelProfiler:
    def test_counts_every_launch(self, gpu):
        profiler = _profile(gpu, *[_desc()] * 5)
        assert profiler.total_launches == 5
        assert profiler.kernels["k"].launches == 5

    def test_fifty_invocation_metric_rule(self, gpu):
        """The paper's rule: HW metrics sampled for <= 50 invocations per
        kernel, but the timeline covers everything."""
        profiler = _profile(gpu, *[_desc()] * 80)
        stats = profiler.kernels["k"]
        assert stats.launches == 80
        assert stats.sampled_launches == 50
        assert stats.total_time_s > stats.sampled_time_s

    def test_op_breakdown_sums_to_one(self, gpu):
        profiler = _profile(gpu, _desc("a", OpClass.GEMM),
                            _desc("b", OpClass.SORT))
        shares = profiler.op_time_breakdown()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["GEMM"] > 0 and shares["Sort"] > 0

    def test_instruction_mix_sums_to_one(self, gpu):
        mix = _profile(gpu, _desc()).instruction_mix()
        assert sum(mix.values()) == pytest.approx(1.0)
        assert mix["int32"] > mix["fp32"]  # 4 iops vs 1 flop per thread

    def test_throughput_positive(self, gpu):
        profiler = _profile(gpu, _desc(fp32_flops=1e9, int32_iops=2e9))
        th = profiler.throughput()
        assert th["gflops"] > 0 and th["giops"] > th["gflops"] * 0.5
        assert th["ipc"] > 0

    def test_stall_breakdown_normalized(self, gpu):
        profiler = _profile(gpu, _desc())
        assert sum(profiler.stall_breakdown().values()) == pytest.approx(1.0)

    def test_phase_breakdown(self, gpu):
        profiler = _profile(gpu, _desc("fwd"), _desc("bwd", phase="backward"))
        shares = profiler.phase_breakdown()
        assert set(shares) == {"forward", "backward"}
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_per_op_class_metric(self, gpu):
        profiler = _profile(gpu, _desc("a", OpClass.GEMM),
                            _desc("b", OpClass.GATHER))
        per_op = profiler.per_op_class("l1_hit")
        assert "GEMM" in per_op and "Gather" in per_op

    def test_detach_stops_collection(self, gpu):
        """A fold reads only its window's launches."""
        gpu.launch(_desc("before"))
        entries = _launched(gpu, _desc("inside"))
        gpu.launch(_desc("after"))
        profiler = KernelProfiler()
        profiler.on_launch(LaunchTable.of(entries + _copied(gpu, np.zeros(4))))
        assert profiler.total_launches == 1
        assert list(profiler.kernels) == ["inside"]

    def test_top_kernels_sorted(self, gpu):
        profiler = _profile(
            gpu, _desc("small", threads=64),
            _desc("big", threads=1 << 20, bytes_read=float(1 << 24),
                  bytes_written=float(1 << 24)))
        top = profiler.top_kernels(2)
        assert top[0].name == "big"


class TestSparsityTracker:
    def test_value_weighted_average(self, gpu):
        tracker = _sparsity(_copied(
            gpu, (np.zeros(100, dtype=np.float32), "zeros"),
            (np.ones(300, dtype=np.float32), "ones")))
        assert tracker.average_sparsity() == pytest.approx(0.25)

    def test_d2h_ignored(self, gpu):
        tracker = _sparsity(_copied(gpu, np.zeros(10), direction="d2h"))
        assert tracker.samples == []

    def test_timeline_order(self, gpu):
        tracker = _sparsity(_copied(gpu, np.zeros(4), np.ones(4)))
        np.testing.assert_allclose(tracker.timeline(), [1.0, 0.0])

    def test_by_label(self, gpu):
        tracker = _sparsity(_copied(gpu, (np.zeros(4), "features"),
                                    (np.ones(4), "labels")))
        by = tracker.by_label()
        assert by["features"] == 1.0 and by["labels"] == 0.0

    def test_periodicity_detects_cycles(self, gpu):
        # strictly periodic transfer pattern
        cycle = (np.zeros(8), np.ones(8),
                 np.concatenate([np.zeros(4), np.ones(4)]))
        tracker = _sparsity(_copied(gpu, *cycle * 12))
        assert tracker.periodicity_score() > 0.8

    def test_periodicity_low_for_constant(self, gpu):
        tracker = _sparsity(_copied(gpu, *[np.ones(8)] * 20))
        assert tracker.periodicity_score() == 0.0


class TestDivergenceInstrument:
    def test_weighted_by_loads(self, gpu):
        rng = np.random.default_rng(0)
        inst = _divergence(
            gpu,
            _desc("irr", OpClass.GATHER, ldst_instrs=1e6,
                  access=AccessPattern.irregular(
                      rng.integers(0, 1 << 22, 4096), 4)),
            _desc("seq", OpClass.COPY, ldst_instrs=1e3,
                  access=AccessPattern.irregular(np.arange(4096), 4)))
        # the heavy irregular kernel dominates the load-weighted fraction
        assert inst.divergent_load_fraction() > 0.9

    def test_by_category(self, gpu):
        cats = _divergence(gpu, _desc("a", OpClass.GATHER)).by_category()
        assert "Gather" in cats

    def test_lines_per_warp_at_least_one(self, gpu):
        inst = _divergence(gpu, _desc())
        assert all(v >= 1.0 for v in inst.lines_per_warp().values())


class TestReports:
    def test_format_table_includes_mean(self):
        text = format_table({"A": {"x": 0.5}, "B": {"x": 0.7}}, ["x"],
                            percent=True)
        assert "mean" in text and "60.0%" in text

    def test_format_table_missing_cell(self):
        text = format_table({"A": {"x": 1.0}}, ["x", "y"], percent=False)
        assert "-" in text

    def test_format_series_sparkline(self):
        text = format_series({"w": np.linspace(0, 1, 50)})
        assert text.startswith("w")
        assert "%" in text  # scale annotation present

    def test_format_scaling_speedups(self):
        text = format_scaling({"W": {1: 2.0, 2: 1.0, 4: 0.5}})
        assert "2.00x" in text and "4.00x" in text
