"""The launch-analysis cache must be invisible in everything but wall-clock.

Three layers of evidence:

* property tests — randomized descriptors analyzed through the cache return
  records *exactly* equal (dataclass equality over every float) to the cold
  pipeline's;
* memo plumbing — fingerprints, the content-keyed divergence memo and the
  per-device launch-site memo hit when they should, follow index content
  (equal indices in different arrays share a result; an array mutated in
  place gets a fresh one), and stand down entirely under
  ``REPRO_ANALYSIS_CACHE=0`` semantics; a row-gather pattern, which carries
  its row sample rather than the address expansion, analyses exactly as
  that expansion does;
* end-to-end — every registry workload's one-epoch kernel-stream fingerprint
  (ordered stream digest included) and memory report are byte-identical
  with the cache on and off.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.characterize import measure_memory
from repro.core.registry import WORKLOAD_KEYS
from repro.gpu import SimulatedGPU, analysis_cache, caches, divergence
from repro.gpu.analysis_cache import AnalysisCache, compute, signature
from repro.gpu.config import DEFAULT_SIMULATION
from repro.gpu.kernel import AccessPattern, KernelDescriptor, OpClass
from repro.tensor import manual_seed
from repro.tensor.ops import base as ops_base
from repro.tensor.ops import scattergather as sg
from repro.testing import fingerprint_workload


def _random_descriptor(rng: np.random.Generator) -> KernelDescriptor:
    kind = rng.integers(0, 3)
    if kind == 0:
        access = AccessPattern.coalesced(int(rng.choice([4, 8])))
    elif kind == 1:
        access = AccessPattern.strided(int(rng.choice([8, 32, 128])))
    else:
        idx = rng.integers(0, 5000, size=int(rng.integers(1, 9000)))
        access = AccessPattern.irregular(idx)
    op_class = rng.choice(list(OpClass))
    return KernelDescriptor(
        name=f"k{rng.integers(1e6)}",
        op_class=op_class,
        threads=int(rng.integers(1, 1 << 20)),
        fp32_flops=float(rng.integers(0, 1 << 30)),
        int32_iops=float(rng.integers(0, 1 << 30)),
        ldst_instrs=float(rng.integers(0, 1 << 24)),
        control_instrs=float(rng.integers(0, 1 << 20)),
        bytes_read=float(rng.integers(1, 1 << 28)),
        bytes_written=float(rng.integers(1, 1 << 28)),
        reuse_factor=float(rng.uniform(1.0, 8.0)),
        block_size=int(rng.choice([128, 256, 512])),
        phase=str(rng.choice(["forward", "backward", "optimizer"])),
        compute_scale=float(rng.uniform(1.0, 4.0)),
    )


class TestCachedEqualsCold:
    def test_randomized_descriptors(self):
        rng = np.random.default_rng(7)
        sim = DEFAULT_SIMULATION
        cache = AnalysisCache()
        with analysis_cache.override(True):
            for _ in range(200):
                desc = _random_descriptor(rng)
                cold = compute(desc, sim)
                first, hit1 = cache.analyze(desc, sim)
                again, hit2 = cache.analyze(desc, sim)
                assert not hit1 and hit2
                # exact dataclass equality: every float of every metric
                assert first == cold
                assert again is first

    def test_name_and_phase_do_not_split_records(self):
        sim = DEFAULT_SIMULATION
        cache = AnalysisCache()
        a = KernelDescriptor(name="fwd", op_class=OpClass.GATHER, threads=4096,
                             bytes_read=1e5, bytes_written=1e5, phase="forward")
        b = KernelDescriptor(name="bwd", op_class=OpClass.GATHER, threads=4096,
                             bytes_read=1e5, bytes_written=1e5, phase="backward")
        assert signature(a, sim) == signature(b, sim)
        rec_a, hit_a = cache.analyze(a, sim)
        rec_b, hit_b = cache.analyze(b, sim)
        assert not hit_a and hit_b and rec_b is rec_a


class TestFingerprints:
    def test_regular_patterns_are_closed_form(self):
        assert AccessPattern.coalesced(4).fingerprint() == ("C", 4)
        assert AccessPattern.strided(64, 4).fingerprint() == ("S", 64, 4)

    def test_equal_content_equal_fingerprint(self):
        idx = np.arange(10_000) % 97
        a = AccessPattern.irregular(idx.copy())
        b = AccessPattern.irregular(idx.copy())
        assert a.fingerprint() == b.fingerprint()

    def test_different_content_different_fingerprint(self):
        a = AccessPattern.irregular(np.arange(8192))
        b = AccessPattern.irregular(np.arange(8192)[::-1].copy())
        assert a.fingerprint() != b.fingerprint()

    def test_fingerprint_is_cached_per_pattern(self):
        pat = AccessPattern.irregular(np.arange(8192))
        assert pat.fingerprint() is pat.fingerprint()


class TestDivergenceByContent:
    def test_equal_content_measures_once(self, monkeypatch):
        calls = []
        cold = divergence._measure_irregular
        monkeypatch.setattr(divergence, "_measure_irregular",
                            lambda *args: calls.append(args) or cold(*args))
        idx = np.arange(10_000) % 97
        a = ops_base.irregular_row_access(idx.copy(), 16)
        b = ops_base.irregular_row_access(idx.copy(), 16)
        assert a is not b and a.indices is not b.indices
        with analysis_cache.override(True):
            analysis_cache.clear()
            first = divergence.measure(a)
            assert divergence.measure(b) is first
            assert len(calls) == 1
            analysis_cache.clear()
            assert not analysis_cache.DIVERGENCE
        with analysis_cache.override(False):
            assert divergence.measure(a) == first
            assert not analysis_cache.DIVERGENCE
        assert len(calls) == 2

    def test_index_array_mutated_in_place(self):
        idx = np.arange(4096, dtype=np.int64)
        with analysis_cache.override(True):
            before = ops_base.irregular_row_access(idx, 16).fingerprint()
            idx[:] = idx[::-1]
            after = ops_base.irregular_row_access(idx, 16).fingerprint()
        assert after != before
        assert after == ops_base.irregular_row_access(idx.copy(),
                                                      16).fingerprint()


def _expanded(indices: np.ndarray, row_width: int) -> AccessPattern:
    """The oracle: a row gather's access stream as the address expansion
    of its row sample, each row's ``lanes`` threads reading adjacent
    elements."""
    lanes = max(1, min(row_width, 32))
    sample = np.asarray(indices).reshape(-1)[: 4096 // lanes + 1]
    addr = (sample[:, None].astype(np.int64) * row_width
            + np.arange(lanes)[None, :]).reshape(-1)
    return AccessPattern.irregular(addr)


ROW_WIDTHS = (1, 7, 16, 32, 64, 300)
SAMPLES = (4096, 1000)


def _gather(access: AccessPattern) -> KernelDescriptor:
    return KernelDescriptor(name="gather", op_class=OpClass.GATHER,
                            threads=1 << 16, bytes_read=1e6,
                            bytes_written=1e6, access=access)


class TestRowPatterns:
    """A row-gather pattern carries its row sample; the expansion the
    divergence model reads is built from it on demand."""

    def test_pattern_holds_row_sample_not_expansion(self):
        idx = np.arange(10_000, dtype=np.int32) % 997
        for width in ROW_WIDTHS:
            lanes = max(1, min(width, 32))
            pattern = ops_base.irregular_row_access(idx, width)
            assert pattern.row_width == width
            assert pattern.indices.dtype == np.int64
            assert np.array_equal(pattern.indices, idx[: 4096 // lanes + 1])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 6000),
           high=st.integers(1, 1 << 22))
    def test_analysis_equals_expanded_oracle(self, seed, size, high):
        idx = np.random.default_rng(seed).integers(0, high, size)
        for width in ROW_WIDTHS:
            compact = ops_base.irregular_row_access(idx, width)
            oracle = _expanded(idx, width)
            for sample in SAMPLES:
                window = compact.sampled_indices(sample)
                expected = oracle.sampled_indices(sample)
                assert window.dtype == expected.dtype
                assert np.array_equal(window, expected), (width, sample)
                sim = replace(DEFAULT_SIMULATION, divergence_sample=sample)
                for enabled in (True, False):
                    with analysis_cache.override(enabled):
                        analysis_cache.clear()
                        assert divergence.measure(compact, sample=sample) \
                            == divergence.measure(oracle, sample=sample)
                        assert caches.analyze(_gather(compact), sim) \
                            == caches.analyze(_gather(oracle), sim)
        analysis_cache.clear()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 6000),
           high=st.integers(1, 8))
    def test_equal_fingerprints_exactly_when_windows_equal(self, seed, size,
                                                            high):
        # few distinct values, so a changed index often leaves the window
        # alone: beyond the sample, in a row the window skips, or unchanged
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, high, size)
        for width in ROW_WIDTHS:
            for sample in SAMPLES:
                other = idx.copy()
                other[rng.integers(0, size, 3)] = rng.integers(0, high, 3)
                a = ops_base.irregular_row_access(idx, width)
                b = ops_base.irregular_row_access(other, width)
                same = np.array_equal(a.sampled_indices(sample),
                                      b.sampled_indices(sample))
                assert (a.fingerprint(sample) == b.fingerprint(sample)) \
                    == same, (width, sample)

    def test_index_past_the_width_one_window_is_not_hashed(self):
        # width 1 keeps 4,097 rows; the 4,096-thread window ends before
        # the last, so changing it changes neither window nor fingerprint
        idx = np.arange(5000, dtype=np.int64)
        before = ops_base.irregular_row_access(idx, 1)
        idx[4096] = -1
        after = ops_base.irregular_row_access(idx, 1)
        assert after.fingerprint() == before.fingerprint()
        idx[4095] = -1
        assert ops_base.irregular_row_access(idx, 1).fingerprint() \
            != before.fingerprint()


class TestSegmentSumPlans:
    def test_values_identical_enabled_and_disabled(self):
        rng = np.random.default_rng(3)
        for cols in (1, 8, 64):  # narrow (bincount) and wide (CSR) branches
            src = rng.standard_normal((500, cols)).astype(np.float32)
            idx = rng.integers(0, 40, size=500).astype(np.int64)
            with analysis_cache.override(True):
                analysis_cache.clear()
                warm1 = sg.segment_sum_data(src, idx, 40)
                warm2 = sg.segment_sum_data(src, idx, 40)
            with analysis_cache.override(False):
                cold = sg.segment_sum_data(src, idx, 40)
            assert np.array_equal(warm1, cold)
            assert np.array_equal(warm2, cold)


class TestDeviceCounters:
    def _run(self, enabled: bool):
        with analysis_cache.override(enabled):
            analysis_cache.clear()
            device = SimulatedGPU()
            for _ in range(3):
                ops_base.launch_elementwise(device, "ew_test", 1 << 16, 2)
                ops_base.launch_reduction(device, "red_test", 1 << 16, 1)
            # copy before the override exits: leaving the block may flip the
            # effective setting, which zeroes the live hit/miss counters
            return replace(device.stats)

    def test_hits_and_misses_partition_launches(self):
        stats = self._run(enabled=True)
        assert stats.analysis_hits + stats.analysis_misses == stats.kernel_count
        assert stats.analysis_hits > 0  # repeats replay from the site memo

    def test_disabled_counts_every_launch_as_miss(self):
        stats = self._run(enabled=False)
        assert stats.analysis_hits == 0
        assert stats.analysis_misses == stats.kernel_count

    def test_replay_matches_cold_clock(self):
        # identical launch sequences must produce identical simulated clocks
        clocks = {}
        for enabled in (True, False):
            with analysis_cache.override(enabled):
                analysis_cache.clear()
                device = SimulatedGPU()
                for _ in range(5):
                    ops_base.launch_elementwise(device, "ew_clock", 1 << 14, 2)
                clocks[enabled] = (device.clock_s, device.stats.kernel_time_s,
                                  device.stats.launch_overhead_s)
        assert clocks[True] == clocks[False]


@pytest.mark.parametrize("key", WORKLOAD_KEYS)
def test_stream_fingerprint_identical_cache_on_and_off(key):
    """The tentpole guarantee: memoization changes wall-clock, nothing else.

    Full one-epoch fingerprints — ordered stream digest, per-op-class launch
    histograms, instruction/byte totals, transfer totals and training losses
    — must match exactly between the cached and cold pipelines.
    """
    manual_seed(0)
    with analysis_cache.override(True):
        analysis_cache.clear()
        warm = fingerprint_workload(key)
    with analysis_cache.override(False):
        cold = fingerprint_workload(key)
    analysis_cache.clear()
    assert warm == cold


@pytest.mark.parametrize("key", WORKLOAD_KEYS)
def test_memory_report_identical_cache_on_and_off(key):
    """Host-side memos must not decide when a tracked buffer is freed: the
    memory report (peaks, watermarks, churn, fragmentation, digest) is the
    same with the cache on and off."""
    with analysis_cache.override(True):
        analysis_cache.clear()
        warm = measure_memory(key)
    with analysis_cache.override(False):
        cold = measure_memory(key)
    analysis_cache.clear()
    assert warm == cold
