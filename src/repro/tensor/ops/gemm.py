"""Dense matrix multiply operations (GEMM / batched GEMM / fused linear)."""

from __future__ import annotations

import numpy as np

from ..autograd import Function
from .base import (as_array, launch_elementwise, launch_gemm, launch_reduction,
                   launch_unbroadcast, unbroadcast)


def _data(x):
    return as_array(x)


def _gemm_dims(a: np.ndarray, b: np.ndarray) -> tuple[int, int, int, int]:
    """(batch, m, k, n) for a matmul of ``a @ b`` after broadcasting."""
    m, k = a.shape[-2], a.shape[-1]
    n = b.shape[-1]
    batch_shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    batch = int(np.prod(batch_shape)) if batch_shape else 1
    return batch, m, k, n


class MatMul(Function):
    @staticmethod
    def forward(ctx, a, b):
        ad, bd = _data(a), _data(b)
        ctx.save_for_backward(ad, bd)
        out = ad @ bd
        batch, m, k, n = _gemm_dims(ad, bd)
        launch_gemm(ctx.device, "sgemm_nn", m, k, n, batch)
        return out

    @staticmethod
    def backward(ctx, grad):
        ad, bd = ctx.saved
        batch, m, k, n = _gemm_dims(ad, bd)
        need_a, need_b = ctx.needs_input_grad[0], ctx.needs_input_grad[1]
        # dA = dC @ B^T ; dB = A^T @ dC  (two more GEMM launches)
        grad_a = grad @ np.swapaxes(bd, -1, -2) if need_a else None
        grad_b = np.swapaxes(ad, -1, -2) @ grad if need_b else None
        launch_gemm(ctx.device, "sgemm_nt_dgrad", m, n, k, batch)
        launch_gemm(ctx.device, "sgemm_tn_wgrad", k, m, n, batch)
        # Reduce broadcast batch dims back to the parameter shapes (both
        # extra leading dims and interior size-1 batch dims).  An unneeded
        # gradient still launches its reduction; ``grad`` carries the
        # broadcast batch shape.
        if need_a:
            grad_a = unbroadcast(grad_a, ad.shape, ctx.device)
        else:
            launch_unbroadcast(ctx.device, grad.shape[:-2] + (m, k), ad.shape)
        if need_b:
            grad_b = unbroadcast(grad_b, bd.shape, ctx.device)
        else:
            launch_unbroadcast(ctx.device, grad.shape[:-2] + (k, n), bd.shape)
        return grad_a, grad_b


class Linear(Function):
    """Fused ``x @ W.T + bias`` — what cuBLAS-backed nn.Linear launches."""

    @staticmethod
    def forward(ctx, x, weight, bias=None):
        xd, wd = _data(x), _data(weight)
        ctx.save_for_backward(xd, wd)
        ctx.extras["has_bias"] = bias is not None
        out = xd @ wd.T
        if bias is not None:
            out += _data(bias)
        rows = int(np.prod(xd.shape[:-1]))
        launch_gemm(ctx.device, "sgemm_linear", rows, xd.shape[-1], wd.shape[0])
        if bias is not None:
            launch_elementwise(ctx.device, "ew_bias_add", int(out.size), 2)
        return out

    @staticmethod
    def backward(ctx, grad):
        xd, wd = ctx.saved
        rows = int(np.prod(xd.shape[:-1]))
        in_features = xd.shape[-1]
        out_features = wd.shape[0]
        grad2d = grad.reshape(rows, out_features)
        x2d = xd.reshape(rows, in_features)

        need_x, need_w = ctx.needs_input_grad[0], ctx.needs_input_grad[1]
        grad_x = (grad2d @ wd).reshape(xd.shape) if need_x else None
        grad_w = grad2d.T @ x2d if need_w else None
        launch_gemm(ctx.device, "sgemm_linear_dgrad", rows, out_features, in_features)
        launch_gemm(ctx.device, "sgemm_linear_wgrad", out_features, rows, in_features)
        grads = [grad_x, grad_w]
        if ctx.extras["has_bias"]:
            grads.append(grad2d.sum(axis=0) if ctx.needs_input_grad[2] else None)
            launch_reduction(ctx.device, "reduce_bias_grad", grad2d.size,
                             out_features)
        return tuple(grads)
