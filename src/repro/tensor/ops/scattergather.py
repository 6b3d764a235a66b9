"""Irregular data-movement operations: gather / scatter / index select /
embedding lookups and segment reductions.

These are the aggregation-phase kernels of GNN training.  Each launch
attaches its *actual* index array so the device measures real warp
divergence and locality — the simulator's stand-in for NVBit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ...gpu import OpClass
from ..autograd import Function
from .base import (
    COSTS,
    FLOAT_BYTES,
    INDEX_BYTES,
    as_array,
    irregular_row_access,
    launch,
)


def _data(x):
    return as_array(x)


def _as_index(x) -> np.ndarray:
    """Index payload as int64, without copying when it already is.

    The launch-analysis memos key on index *content*, so the result's
    identity does not matter; skipping the copy still spares every op a
    pass over persistent index arrays (edge lists, batch assignments held
    by the workload), which are int64 already.
    """
    return np.asarray(_data(x)).astype(np.int64, copy=False)


def _row_width(shape: tuple[int, ...]) -> int:
    width = 1
    for s in shape[1:]:
        width *= s
    return max(1, width)


def launch_gather(device, name: str, indices: np.ndarray, row_width: int,
                  op_class: OpClass = OpClass.GATHER) -> None:
    if device is None or indices.size == 0:
        return
    n = int(indices.size) * row_width
    cost = COSTS["gather"]
    launch(
        device,
        name,
        op_class,
        threads=n,
        cost=cost,
        bytes_read=float(n * FLOAT_BYTES + indices.size * INDEX_BYTES),
        bytes_written=float(n * FLOAT_BYTES),
        access=irregular_row_access(indices, row_width),
    )


def launch_scatter(device, name: str, indices: np.ndarray, row_width: int) -> None:
    if device is None or indices.size == 0:
        return
    n = int(indices.size) * row_width
    launch(
        device,
        name,
        OpClass.SCATTER,
        threads=n,
        cost=COSTS["scatter"],
        bytes_read=float(n * FLOAT_BYTES + indices.size * INDEX_BYTES),
        bytes_written=float(n * FLOAT_BYTES),
        access=irregular_row_access(indices, row_width),
    )


#: segment counts whose ids fit ``uint16``, which numpy radix-sorts
_RADIX_SEGMENTS = 1 << 16


def _stable_order(idx: np.ndarray, num_segments: int) -> np.ndarray:
    """``np.argsort(idx, kind="stable")``, cheaper where it can be: none
    for an index already in order, and a radix sort of ``uint16`` ids (the
    same permutation) when every id fits."""
    if (idx[1:] >= idx[:-1]).all():
        return np.arange(idx.size)
    if num_segments <= _RADIX_SEGMENTS:
        return np.argsort(idx.astype(np.uint16), kind="stable")
    return np.argsort(idx, kind="stable")


def segment_sum_data(src: np.ndarray, index: np.ndarray, num_segments: int) -> np.ndarray:
    """Sum rows of ``src`` into ``num_segments`` buckets chosen by ``index``.

    The numpy equivalent of an atomic scatter-add kernel: each segment is
    ``0.0`` plus its rows, added in float64 in ascending source order, then
    cast back.  Three bit-identical routes compute it:

    * narrow rows: one bincount over flattened (segment, column) keys;
    * wide rows of a floating dtype where no segment gets two rows: the
      rows copied into zeros, plus ``0.0`` (the sum's ``0.0 + x``, which
      turns ``-0.0`` into ``+0.0``);
    * other wide rows: a CSR selection-matrix product (row ``s`` holds ones
      at the source rows with ``index == s`` in ascending source order, so
      the accumulation order matches bincount element for element while
      skipping its ``rows x cols`` key/weight temporaries).
    """
    # reshape(n, -1) cannot infer the trailing dim when n == 0, so spell it
    # out; an empty source (e.g. a sampled block with no edges) scatters to
    # all-zero segments.
    cols = int(np.prod(src.shape[1:], dtype=np.int64)) if src.ndim > 1 else 1
    src2d = src.reshape(src.shape[0], cols)
    idx = index.astype(np.int64, copy=False)
    shape = (num_segments,) + src.shape[1:]
    if cols >= 24:
        counts = np.bincount(idx, minlength=num_segments)
        if src.dtype.kind == "f" and counts.max(initial=0) <= 1:
            out = np.zeros((num_segments, cols), dtype=src.dtype)
            out[idx] = src2d + 0.0
            return out.reshape(shape)
        indptr = np.zeros(num_segments + 1, np.int64)
        np.cumsum(counts, out=indptr[1:])
        plan = sp.csr_matrix(
            (np.ones(idx.size, np.float64), _stable_order(idx, num_segments),
             indptr),
            shape=(num_segments, idx.size),
        )
        sums = plan @ src2d.astype(np.float64, copy=False)
    else:
        keys = (idx[:, None] * cols + np.arange(cols)[None, :]).reshape(-1)
        sums = np.bincount(keys, weights=src2d.reshape(-1),
                           minlength=num_segments * cols)
    return sums.reshape(shape).astype(src.dtype, copy=False)


class IndexSelect(Function):
    """Select rows along axis 0 (PyTorch ``index_select`` / fancy indexing)."""

    @staticmethod
    def forward(ctx, a, index):
        ad = _data(a)
        idx = _as_index(index).reshape(-1)
        ctx.save_for_backward(idx)
        ctx.extras["in_rows"] = ad.shape[0]
        out = ad[idx]
        launch_gather(ctx.device, "index_select", idx, _row_width(ad.shape),
                      op_class=OpClass.INDEX_SELECT)
        return out

    @staticmethod
    def backward(ctx, grad):
        (idx,) = ctx.saved
        in_rows = ctx.extras["in_rows"]
        out = segment_sum_data(grad, idx, in_rows)
        launch_scatter(ctx.device, "index_select_bwd_scatter", idx,
                       _row_width(grad.shape))
        return (out,)


class Gather(Function):
    """Elementwise gather along an axis (``torch.gather`` semantics)."""

    @staticmethod
    def forward(ctx, a, index, axis: int):
        ad = _data(a)
        idx = _as_index(index)
        ctx.save_for_backward(idx)
        ctx.extras.update(axis=axis, shape=ad.shape)
        out = np.take_along_axis(ad, idx, axis=axis)
        launch_gather(ctx.device, "gather_dim", idx.reshape(-1), 1)
        return out

    @staticmethod
    def backward(ctx, grad):
        (idx,) = ctx.saved
        axis = ctx.extras["axis"]
        shape = ctx.extras["shape"]
        out = np.zeros(shape, dtype=grad.dtype)
        # Accumulate (not overwrite): duplicate indices along the gather axis
        # must each contribute, like the atomic adds of the real kernel.
        grids = list(np.indices(idx.shape))
        grids[axis] = idx
        np.add.at(out, tuple(grids), grad)
        launch_scatter(ctx.device, "gather_dim_bwd", idx.reshape(-1), 1)
        return (out,)


class ScatterAddRows(Function):
    """out[index[e]] += src[e]  — edge-to-node aggregation (atomic adds)."""

    @staticmethod
    def forward(ctx, src, index, num_segments: int):
        sd = _data(src)
        idx = _as_index(index).reshape(-1)
        ctx.save_for_backward(idx)
        out = segment_sum_data(sd, idx, num_segments)
        launch_scatter(ctx.device, "scatter_add", idx, _row_width(sd.shape))
        return out

    @staticmethod
    def backward(ctx, grad):
        (idx,) = ctx.saved
        out = grad[idx]
        launch_gather(ctx.device, "scatter_add_bwd_gather", idx,
                      _row_width(grad.shape))
        return (out,)


class SegmentMax(Function):
    """out[s] = max over rows with index == s (max-pooling aggregation)."""

    @staticmethod
    def forward(ctx, src, index, num_segments: int):
        sd = _data(src)
        idx = _as_index(index).reshape(-1)
        src2d = sd.reshape(sd.shape[0], -1)
        out = np.full((num_segments, src2d.shape[1]), -np.inf, dtype=src2d.dtype)
        np.maximum.at(out, idx, src2d)
        empty = ~np.isin(np.arange(num_segments), idx)
        out[empty] = 0.0
        winners = out[idx] == src2d
        ctx.save_for_backward(idx, winners, np.array(sd.shape))
        ctx.extras["num_segments"] = num_segments
        launch_scatter(ctx.device, "scatter_max", idx, src2d.shape[1])
        return out.reshape((num_segments,) + sd.shape[1:])

    @staticmethod
    def backward(ctx, grad):
        idx, winners, shape = ctx.saved
        grad2d = grad.reshape(grad.shape[0], -1)
        # Split gradient among tied winners within each segment.
        counts = np.zeros_like(grad2d)
        np.add.at(counts, idx, winners.astype(grad2d.dtype))
        denom = np.where(counts[idx] > 0, counts[idx], 1.0)
        out = (grad2d[idx] * winners) / denom
        launch_gather(ctx.device, "scatter_max_bwd", idx, grad2d.shape[1])
        return (out.reshape(tuple(shape)),)


class Embedding(Function):
    """Row lookup into a trainable table; backward is a scatter-add."""

    @staticmethod
    def forward(ctx, weight, index):
        wd = _data(weight)
        idx = _as_index(index)
        ctx.save_for_backward(idx)
        ctx.extras["rows"] = wd.shape[0]
        out = wd[idx.reshape(-1)].reshape(idx.shape + (wd.shape[1],))
        launch_gather(ctx.device, "embedding_fwd", idx.reshape(-1), wd.shape[1],
                      op_class=OpClass.EMBEDDING)
        return out

    @staticmethod
    def backward(ctx, grad):
        (idx,) = ctx.saved
        rows = ctx.extras["rows"]
        flat = idx.reshape(-1)
        grad2d = grad.reshape(flat.size, -1)
        out = segment_sum_data(grad2d, flat, rows)
        launch_scatter(ctx.device, "embedding_bwd_scatter", flat, grad2d.shape[1])
        return (out,)
