"""2-D convolution (NCHW), the dominant op of the STGCN workload.

Forward/backward run as implicit-GEMM style computations on host numpy; the
emitted kernels are classified CONV2D (cuDNN's fprop/dgrad/wgrad kernels),
which the paper tracks separately from GEMM in its Figure-2 breakdown.
"""

from __future__ import annotations

import numpy as np

from ...gpu import OpClass
from ..autograd import Function
from .base import (CONV_IOPS_PER_FMA, FLOAT_BYTES, as_array, launch, launch_elementwise,
                   launch_reduction)


def _data(x):
    return as_array(x)


def launch_conv(device, name: str, n: int, c: int, o: int, oh: int, ow: int,
                kh: int, kw: int) -> None:
    if device is None:
        return
    flops = 2.0 * n * o * oh * ow * c * kh * kw
    fmas = flops / 2.0
    # implicit-GEMM convolutions compute gather offsets per input patch
    iops = CONV_IOPS_PER_FMA * fmas + 12.0 * n * o * oh * ow
    in_bytes = FLOAT_BYTES * n * c * (oh + kh - 1) * (ow + kw - 1)
    out_bytes = FLOAT_BYTES * n * o * oh * ow
    w_bytes = FLOAT_BYTES * o * c * kh * kw
    tiles = -(-(oh * ow) // 64) * -(-o // 64) * n
    launch(
        device,
        name,
        OpClass.CONV2D,
        threads=max(256, tiles * 256),
        fp32_flops=flops,
        int32_iops=iops,
        ldst_instrs=fmas / 12.0,
        control_instrs=fmas / 24.0,
        bytes_read=float(in_bytes + w_bytes),
        bytes_written=float(out_bytes),
        working_set_bytes=float(in_bytes + w_bytes + out_bytes),
        reuse_factor=2.5,
    )


def _windows(x: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """Sliding windows of shape (N, C, OH, OW, kh, kw)."""
    view = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    return view[:, :, ::sh, ::sw, :, :]


class Conv2d(Function):
    @staticmethod
    def forward(ctx, x, weight, bias=None, stride=(1, 1), padding=(0, 0)):
        xd, wd = _data(x), _data(weight)
        sh, sw = stride
        ph, pw = padding
        if ph or pw:
            xd = np.pad(xd, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        o, c, kh, kw = wd.shape
        n = xd.shape[0]
        win = _windows(xd, kh, kw, sh, sw)
        out = np.einsum("nchwij,ocij->nohw", win, wd, optimize=True)
        if bias is not None:
            out = out + _data(bias)[None, :, None, None]
        ctx.save_for_backward(xd, wd)
        ctx.extras.update(stride=stride, padding=padding,
                          has_bias=bias is not None, in_shape=_data(x).shape)
        oh, ow = out.shape[2], out.shape[3]
        launch_conv(ctx.device, "cudnn_conv2d_fprop", n, c, o, oh, ow, kh, kw)
        if bias is not None:
            launch_elementwise(ctx.device, "ew_conv_bias", int(out.size), 2)
        return out.astype(_data(x).dtype, copy=False)

    @staticmethod
    def backward(ctx, grad):
        xd, wd = ctx.saved  # xd is already padded
        sh, sw = ctx.extras["stride"]
        ph, pw = ctx.extras["padding"]
        in_shape = ctx.extras["in_shape"]
        o, c, kh, kw = wd.shape
        n, _, oh, ow = grad.shape

        need_x, need_w = ctx.needs_input_grad[0], ctx.needs_input_grad[1]

        # -- weight gradient: correlate input windows with grad --------------
        grad_w = None
        if need_w:
            win = _windows(xd, kh, kw, sh, sw)
            grad_w = np.einsum("nohw,nchwij->ocij", grad, win, optimize=True)
        launch_conv(ctx.device, "cudnn_conv2d_wgrad", n, c, o, oh, ow, kh, kw)

        # -- data gradient: full correlation with flipped kernel -------------
        grad_x = None
        if need_x:
            grad_x = _conv_dgrad(grad, xd, wd, (sh, sw), (ph, pw), in_shape)
        launch_conv(ctx.device, "cudnn_conv2d_dgrad", n, o, c, xd.shape[2],
                    xd.shape[3], kh, kw)

        grads = [grad_x, grad_w]
        if ctx.extras["has_bias"]:
            need_b = ctx.needs_input_grad[2]
            grads.append(grad.sum(axis=(0, 2, 3)) if need_b else None)
            launch_reduction(ctx.device, "reduce_conv_bias_grad", int(grad.size), o)
        return tuple(grads)


def _conv_dgrad(grad, xd, wd, stride, padding, in_shape) -> np.ndarray:
    """Input gradient of a convolution whose padded input was ``xd``."""
    o, c, kh, kw = wd.shape
    n, _, oh, ow = grad.shape
    sh, sw = stride
    ph, pw = padding
    if sh > 1 or sw > 1:
        dil = np.zeros((n, o, (oh - 1) * sh + 1, (ow - 1) * sw + 1),
                       dtype=grad.dtype)
        dil[:, :, ::sh, ::sw] = grad
    else:
        dil = grad
    pad_h, pad_w = kh - 1, kw - 1
    gpad = np.pad(dil, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)))
    wflip = wd[:, :, ::-1, ::-1]
    gwin = np.lib.stride_tricks.sliding_window_view(gpad, (kh, kw), axis=(2, 3))
    grad_x_padded = np.einsum("nohwij,ocij->nchw", gwin, wflip, optimize=True)
    # Match the padded-input size: trim overhang, zero-fill any remainder
    # rows/cols the strided conv never visited.
    grad_x_padded = grad_x_padded[:, :, : xd.shape[2], : xd.shape[3]]
    short_h = xd.shape[2] - grad_x_padded.shape[2]
    short_w = xd.shape[3] - grad_x_padded.shape[3]
    if short_h or short_w:
        grad_x_padded = np.pad(
            grad_x_padded, ((0, 0), (0, 0), (0, short_h), (0, short_w))
        )
    if ph or pw:
        grad_x = grad_x_padded[:, :, ph : ph + in_shape[2], pw : pw + in_shape[3]]
    else:
        grad_x = grad_x_padded
    return np.ascontiguousarray(grad_x)
