"""Fused loss functions: cross entropy, NLL, BCE-with-logits, MSE.

Fused the way framework kernels are (log-softmax + gather + reduce in one
region), emitting the same kernel sequence real training shows: a softmax
pass, an index gather of the target logits, and a mean reduction.
"""

from __future__ import annotations

import numpy as np

from ...gpu import OpClass
from ..autograd import Function
from .base import COSTS, as_array, launch, launch_elementwise, launch_reduction
from .scattergather import launch_gather


def _data(x):
    return as_array(x)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    # two row-size temporaries instead of four; same per-element operation
    # order as the naive expression, hence bit-identical
    shifted = logits - logits.max(axis=-1, keepdims=True)
    norm = np.exp(shifted).sum(axis=-1, keepdims=True)
    np.log(norm, out=norm)
    shifted -= norm
    return shifted


class CrossEntropy(Function):
    """Mean cross-entropy of logits (rows) against int class targets."""

    @staticmethod
    def forward(ctx, logits, target):
        ld = _data(logits)
        td = np.asarray(_data(target)).astype(np.int64, copy=False).reshape(-1)
        logp = _log_softmax(ld.reshape(-1, ld.shape[-1]))
        n = logp.shape[0]
        picked = logp[np.arange(n), td]
        loss = -picked.mean()
        ctx.save_for_backward(np.exp(logp), td)
        ctx.extras["shape"] = ld.shape
        launch(ctx.device, "log_softmax_fwd", OpClass.SOFTMAX, threads=int(ld.size),
               cost=COSTS["softmax"], bytes_read=float(ld.size * 4),
               bytes_written=float(ld.size * 4))
        launch_gather(ctx.device, "nll_gather", td, 1)
        launch_reduction(ctx.device, "reduce_loss", n, 1)
        return np.asarray(loss, dtype=ld.dtype)

    @staticmethod
    def backward(ctx, grad):
        softmax, td = ctx.saved
        shape = ctx.extras["shape"]
        n = softmax.shape[0]
        g = softmax.copy()
        g[np.arange(n), td] -= 1.0
        g *= np.asarray(grad) / n
        launch_elementwise(ctx.device, "ew_ce_bwd", int(g.size), 2)
        return (g.reshape(shape),)


class NLLLoss(Function):
    """Mean negative log likelihood of log-probabilities."""

    @staticmethod
    def forward(ctx, logp, target):
        lp = _data(logp)
        td = np.asarray(_data(target)).astype(np.int64).reshape(-1)
        n = lp.reshape(-1, lp.shape[-1]).shape[0]
        loss = -lp.reshape(-1, lp.shape[-1])[np.arange(n), td].mean()
        ctx.save_for_backward(td)
        ctx.extras["shape"] = lp.shape
        launch_gather(ctx.device, "nll_gather", td, 1)
        launch_reduction(ctx.device, "reduce_loss", n, 1)
        return np.asarray(loss, dtype=lp.dtype)

    @staticmethod
    def backward(ctx, grad):
        (td,) = ctx.saved
        shape = ctx.extras["shape"]
        cols = shape[-1]
        n = td.size
        g = np.zeros((n, cols), dtype=np.asarray(grad).dtype)
        g[np.arange(n), td] = -np.asarray(grad) / n
        launch_elementwise(ctx.device, "ew_nll_bwd", int(g.size), 1)
        return (g.reshape(shape),)


class BCEWithLogits(Function):
    """Mean binary cross entropy on logits (numerically stable fused form)."""

    @staticmethod
    def forward(ctx, logits, target, pos_weight: float = 1.0):
        ld = _data(logits)
        td = _data(target).astype(ld.dtype, copy=False)
        # log(1 + exp(-|x|)) + max(x, 0) - x*t, stable for any x.  ARGA's
        # reconstruction loss runs this over a dense N x N adjacency, so the
        # chain runs in place: one scratch buffer holds x*t, then the log1p
        # tail, then the sigmoid saved for backward.  Each element sees the
        # naive expression's operations in its order, hence bit-identical.
        loss_elems = np.maximum(ld, 0)
        scratch = np.multiply(ld, td)
        loss_elems -= scratch
        np.abs(ld, out=scratch)
        np.negative(scratch, out=scratch)
        np.exp(scratch, out=scratch)
        np.log1p(scratch, out=scratch)
        loss_elems += scratch
        positive = None
        if pos_weight != 1.0:
            # a weight of 1 leaves an element as it is: scale positives only
            positive = td > 0.5
            np.multiply(loss_elems, np.float32(pos_weight), out=loss_elems,
                        where=positive)
        loss = loss_elems.mean()
        del loss_elems
        sig = np.clip(ld, -60, 60, out=scratch)
        np.negative(sig, out=sig)
        np.exp(sig, out=sig)
        sig += 1.0
        np.reciprocal(sig, out=sig)
        ctx.save_for_backward(sig, td)
        ctx.extras["pos_weight"] = pos_weight
        ctx.extras["positive"] = positive
        launch_elementwise(ctx.device, "ew_bce_fwd", int(ld.size), 2,
                           kind="unary", flops_per_elem=5.0)
        launch_reduction(ctx.device, "reduce_loss", int(ld.size), 1)
        return np.asarray(loss, dtype=ld.dtype)

    @staticmethod
    def backward(ctx, grad):
        sig, td = ctx.saved
        g = np.subtract(sig, td)
        g /= sig.size
        positive = ctx.extras["positive"]
        if positive is not None:
            np.multiply(g, np.float32(ctx.extras["pos_weight"]), out=g,
                        where=positive)
        g *= np.asarray(grad)
        launch_elementwise(ctx.device, "ew_bce_bwd", int(g.size), 2)
        return (g,)


class MSELoss(Function):
    @staticmethod
    def forward(ctx, pred, target):
        pd = _data(pred)
        td = _data(target).astype(pd.dtype)
        diff = pd - td
        ctx.save_for_backward(diff)
        launch_elementwise(ctx.device, "ew_mse_fwd", int(pd.size), 2)
        launch_reduction(ctx.device, "reduce_loss", int(pd.size), 1)
        return np.asarray((diff * diff).mean(), dtype=pd.dtype)

    @staticmethod
    def backward(ctx, grad):
        (diff,) = ctx.saved
        g = 2.0 * diff / diff.size * np.asarray(grad)
        launch_elementwise(ctx.device, "ew_mse_bwd", int(g.size), 2)
        return (g,)
