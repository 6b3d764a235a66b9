"""Rewrites that must change cost only: byte-for-byte against the formulations
they replaced.

Dataset synthesis, edge-pair deduplication and segment sums were rewritten
for speed; each test keeps the earlier formulation as its reference and
compares output bytes (and, for generators, the RNG state afterwards, so the
draws that follow are the same too).  The golden fingerprint's per-epoch
fold is checked the way the profile's is: at every epoch end the device's
log holds at most that epoch.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.datasets import movielens
from repro.datasets.base import sparse_bag_of_words
from repro.graph import sorted_unique, unique_pairs
from repro.profiling import trace
from repro.tensor.ops.scattergather import segment_sum_data
from repro.testing import fingerprint_workload


# -- bag of words -------------------------------------------------------------

def reference_bag_of_words(num_rows, num_features, nnz_per_row, rng,
                           skew=1.1):
    ranks = np.arange(1, num_features + 1, dtype=np.float64)
    probs = ranks ** (-skew)
    probs /= probs.sum()
    out = np.zeros((num_rows, num_features), dtype=np.float32)
    for row in range(num_rows):
        k = max(1, int(rng.poisson(nnz_per_row)))
        words = rng.choice(num_features, size=min(k, num_features),
                           replace=False, p=probs)
        out[row, words] = 1.0
    return out


@pytest.mark.parametrize("rows, words, mean", [
    (2708, 1433, 18),  # Cora
    (3327, 3703, 32),
    (300, 30, 25),     # most rows repeat words, some several rounds
    (50, 8, 20),       # k >= the vocabulary: every word, every row
    (1, 1433, 18),
])
def test_bag_of_words_matches_choice(rows, words, mean):
    ref_rng, rng = np.random.default_rng(7), np.random.default_rng(7)
    want = reference_bag_of_words(rows, words, mean, ref_rng)
    got = sparse_bag_of_words(rows, words, mean, rng)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# -- edge pairs ---------------------------------------------------------------

def reference_pairs(src, dst):
    pairs = np.unique(np.stack([src, dst], axis=1), axis=0)
    return pairs[:, 0], pairs[:, 1]


def _ids(values):
    return np.asarray(values, dtype=np.int64)


@pytest.mark.parametrize("src, dst, n", [
    (_ids([]), _ids([]), 5),
    (_ids([2, 0, 1, 2]), _ids([2, 0, 3, 2]), 4),            # self-loops
    (_ids([3, 1, 3, 1, 3, 0]), _ids([0, 2, 0, 2, 1, 0]), 4),  # duplicates
    (_ids([0, 0, 0]), _ids([0, 0, 0]), 1),
    (_ids([6, 0, 6, 6, 0]), _ids([6, 6, 0, 6, 6]), 7),      # ids at n - 1
])
def test_unique_pairs_matches_row_unique(src, dst, n):
    want = reference_pairs(src, dst)
    got = unique_pairs(src, dst, n)
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        assert g.tobytes() == np.ascontiguousarray(w).tobytes()


def test_unique_pairs_matches_row_unique_at_random():
    rng = np.random.default_rng(3)
    for n in (2, 17, 1000):
        src = rng.integers(0, n, size=5 * n)
        dst = rng.integers(0, n, size=5 * n)
        for g, w in zip(unique_pairs(src, dst, n), reference_pairs(src, dst)):
            assert g.tobytes() == np.ascontiguousarray(w).tobytes()


# -- sorted unique ids ---------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("values", [
    [],
    [4],
    [3, 3, 3, 3],
    [6, 0, 6, 2, 0, 6],                                      # ids at 0, n - 1
    [0, 6],
    [[5, 1], [1, 0]],                                        # flattened
])
def test_sorted_unique_matches_unique(values, dtype):
    values = np.asarray(values, dtype=dtype)
    want, got = np.unique(values), sorted_unique(values)
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()


def test_sorted_unique_matches_unique_at_random():
    rng = np.random.default_rng(5)
    for size, high in ((1, 1), (4000, 500), (33000, 1 << 40)):
        values = rng.integers(0, high, size=size)
        assert sorted_unique(values).tobytes() == np.unique(values).tobytes()


# -- item features ------------------------------------------------------------

def reference_item_features(num_items, feature_dim, sparsity, rng):
    latent = rng.normal(size=(num_items, feature_dim)).astype(np.float32)
    mask = rng.random((num_items, feature_dim)) < sparsity
    latent[mask] = 0.0
    return latent


BLOCK = movielens._FEATURE_BLOCK_ROWS


@pytest.mark.parametrize("num_items", [2 * BLOCK + 37, BLOCK // 3])
@pytest.mark.parametrize("feature_dim, sparsity", [(256, 0.26),
                                                   (2560, 0.115)])
def test_item_features_match_whole_matrix_draws(num_items, feature_dim,
                                                sparsity):
    ref_rng, rng = np.random.default_rng(11), np.random.default_rng(11)
    want = reference_item_features(num_items, feature_dim, sparsity, ref_rng)
    got = movielens._item_features(num_items, feature_dim, sparsity, rng)
    assert got.dtype == np.float32 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# -- segment sums -------------------------------------------------------------

def reference_segsum_plan(idx, num_segments, cols):
    if cols >= 24:
        order = np.argsort(idx, kind="stable")
        indptr = np.zeros(num_segments + 1, np.int64)
        np.cumsum(np.bincount(idx, minlength=num_segments), out=indptr[1:])
        return sp.csr_matrix(
            (np.ones(idx.size, np.float64), order, indptr),
            shape=(num_segments, idx.size),
        )
    return (idx[:, None] * cols + np.arange(cols)[None, :]).reshape(-1)


def reference_segment_sum(src, index, num_segments):
    cols = int(np.prod(src.shape[1:], dtype=np.int64)) if src.ndim > 1 else 1
    src2d = src.reshape(src.shape[0], cols)
    idx = index.astype(np.int64, copy=False)
    plan = reference_segsum_plan(idx, num_segments, cols)
    if cols >= 24:
        sums = plan @ src2d.astype(np.float64, copy=False)
    else:
        sums = np.bincount(plan, weights=src2d.reshape(-1),
                           minlength=num_segments * cols)
    return sums.reshape(
        (num_segments,) + src.shape[1:]
    ).astype(src.dtype, copy=False)


def _index(kind, rng, num_segments):
    """Row -> segment ids; every kind leaves some segments empty."""
    if kind == "sorted":
        return np.sort(rng.integers(0, num_segments, size=3 * num_segments))
    if kind == "unsorted":
        return rng.integers(0, num_segments, size=3 * num_segments)
    if kind == "singleton":
        return rng.permutation(num_segments)[: num_segments - 2]
    # mixed: mostly one row per segment, one segment gets three
    idx = rng.permutation(num_segments)[: num_segments - 3]
    return np.concatenate([idx, idx[:1], idx[:1]])


def _rows(rng, n, width, dtype):
    src = rng.normal(size=(n, width)).astype(dtype)
    src[rng.random(src.shape) < 0.2] = -0.0
    src[:1] = -0.0  # one whole row of -0.0
    return src


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [1, 23, 24, 12_000])
@pytest.mark.parametrize("kind", ["sorted", "unsorted", "singleton", "mixed"])
def test_segment_sum_matches_reference(kind, width, dtype):
    rng = np.random.default_rng(width)
    num_segments = 6 if width == 12_000 else 40
    idx = _index(kind, rng, num_segments)
    src = _rows(rng, idx.size, width, dtype)
    want = reference_segment_sum(src, idx, num_segments)
    got = segment_sum_data(src, idx, num_segments)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_segment_sum_keeps_source_shape_and_empty_input():
    rng = np.random.default_rng(5)
    src = _rows(rng, 9, 24, np.float32).reshape(9, 4, 6)
    idx = rng.permutation(12)[:9]
    assert (segment_sum_data(src, idx, 12).tobytes()
            == reference_segment_sum(src, idx, 12).tobytes())
    flat, idx = rng.normal(size=7), np.array([3, 0, 3, 1, 1, 4, 0])
    assert (segment_sum_data(flat, idx, 6).tobytes()
            == reference_segment_sum(flat, idx, 6).tobytes())
    empty = np.zeros((0, 30), np.float32)
    none = np.zeros(0, np.int64)
    assert (segment_sum_data(empty, none, 4).tobytes()
            == reference_segment_sum(empty, none, 4).tobytes())


@pytest.mark.parametrize("num_segments", [65_536, 65_537])
@pytest.mark.parametrize("kind", ["unsorted", "singleton"])
def test_segment_sum_at_the_uint16_boundary(num_segments, kind):
    rng = np.random.default_rng(num_segments)
    if kind == "singleton":
        idx = rng.permutation(num_segments)
    else:
        # the top id sorts last as int64, first if it wrapped to uint16
        top = num_segments - 1
        idx = np.concatenate([[top, 3, top, 0, 5, 3],
                              rng.integers(0, num_segments, size=500)])
    src = _rows(rng, idx.size, 24, np.float32)
    assert (segment_sum_data(src, idx, num_segments).tobytes()
            == reference_segment_sum(src, idx, num_segments).tobytes())


def test_integer_segment_sum_keeps_the_float64_round_trip():
    """Integer rows are summed in float64 too: an int64 above 2**53 comes
    back rounded exactly as the reference rounds it."""
    src = np.full((3, 24), 2 ** 53 + 1, dtype=np.int64)
    idx = np.array([2, 0, 1])
    want = reference_segment_sum(src, idx, 4)
    assert segment_sum_data(src, idx, 4).tobytes() == want.tobytes()


# -- golden fingerprints fold per epoch ---------------------------------------

def test_fingerprint_holds_at_most_one_epoch_of_log(monkeypatch):
    """The stream recorder folds at every epoch end, so the device's log
    never holds more than the epoch being folded."""
    seen = []
    end_epoch = trace.Tracer.end_epoch

    def recording_end_epoch(tracer, device, index, start_s):
        stats = device.stats
        seen.append((len(device.log),
                     stats.kernel_count + stats.transfer_count))
        end_epoch(tracer, device, index, start_s)

    monkeypatch.setattr(trace.Tracer, "end_epoch", recording_end_epoch)
    payload = fingerprint_workload("DGCN", scale="test", epochs=4)
    assert len(seen) == 4
    events = [0] + [total for _, total in seen]
    for (held, _), before, after in zip(seen, events, events[1:]):
        assert 0 < held <= after - before
    assert payload["launch_count"] + payload["transfer_count"] == events[-1]
    assert trace.active() is None
