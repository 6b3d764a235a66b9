"""Autograd engine: tape mechanics, gradient checks, phases."""

import numpy as np
import pytest

from repro.gpu import SimulatedGPU
from repro.tensor import Tensor, functional as F, no_grad, phase
from repro.tensor.autograd import Context, current_phase, is_grad_enabled, topo_order
from repro.tensor.ops.conv import Conv2d
from repro.tensor.ops.gemm import Linear, MatMul


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar-valued fn at x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check_grad(build, shape, seed=0, atol=2e-2, rtol=2e-2):
    """Compare autograd gradient with numeric gradient for `build(tensor)`."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=shape).astype(np.float32) + 0.5
    t = Tensor(data.copy(), requires_grad=True)
    out = build(t)
    loss = out.sum() if out.size > 1 else out
    loss.backward()
    num = numeric_grad(lambda arr: float(build(Tensor(arr)).sum().data), data)
    np.testing.assert_allclose(t.grad.data, num, atol=atol, rtol=rtol)


class TestTape:
    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_no_grad_suppresses_graph(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = t * 2
        assert out._ctx is None
        assert not out.requires_grad

    def test_grad_flag_propagates(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3))
        assert (a + b).requires_grad
        assert not (b + b).requires_grad

    def test_topo_order_ends_at_root(self):
        a = Tensor(np.ones(3), requires_grad=True)
        out = (a * 2 + 1).sum()
        order = topo_order(out)
        assert order[0] is out

    def test_grad_accumulates_across_uses(self):
        a = Tensor(np.ones(3), requires_grad=True)
        out = (a * 2 + a * 3).sum()
        out.backward()
        np.testing.assert_allclose(a.grad.data, 5.0)

    def test_second_backward_accumulates_into_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        (a * 2).sum().backward()
        (a * 2).sum().backward()
        np.testing.assert_allclose(a.grad.data, 4.0)

    def test_diamond_graph(self):
        a = Tensor(np.full(3, 2.0), requires_grad=True)
        b = a * a            # 4
        out = (b + b).sum()  # d/da = 2 * 2a = 8
        out.backward()
        np.testing.assert_allclose(a.grad.data, 8.0)


class TestPhases:
    def test_default_phase_forward(self):
        assert current_phase() == "forward"

    def test_phase_context(self):
        with phase("optimizer"):
            assert current_phase() == "optimizer"
        assert current_phase() == "forward"

    def test_backward_kernels_tagged(self):
        gpu = SimulatedGPU()
        with gpu.observe() as window:
            t = Tensor(np.ones(8, dtype=np.float32), device=gpu,
                       requires_grad=True)
            (t * 2).sum().backward()
        phases = [e[3].phase for e in window.entries() if e[0] == "K"]
        assert "forward" in phases
        assert "backward" in phases


def _skip_case(name):
    """(op, input arrays, keyword args) of a gradient-skipping op; the
    MatMul operands broadcast each other's batch dims."""
    rng = np.random.default_rng(0)

    def f32(*shape):
        return rng.normal(size=shape).astype(np.float32)

    return {
        "linear": (Linear, [f32(2, 5, 7), f32(3, 7), f32(3)], {}),
        "conv2d": (Conv2d, [f32(2, 3, 7, 7), f32(4, 3, 3, 3), f32(4)],
                   dict(stride=(2, 2), padding=(1, 1))),
        "matmul": (MatMul, [f32(3, 1, 4, 5), f32(2, 5, 6)], {}),
    }[name]


def _recorded_backward(name, frozen):
    """Launch descriptors and leaf gradients of one forward + backward,
    with input ``frozen`` not requiring grad."""
    op, arrays, kwargs = _skip_case(name)
    gpu = SimulatedGPU()
    with gpu.observe() as window:
        leaves = [Tensor(a, device=gpu, requires_grad=i != frozen)
                  for i, a in enumerate(arrays)]
        op.apply(*leaves, **kwargs).sum().backward()
    descs = [e[3] for e in window.entries() if e[0] == "K"]
    return descs, [leaf.grad for leaf in leaves]


SKIP_CASES = [("linear", 0), ("linear", 1), ("linear", 2), ("conv2d", 0),
              ("conv2d", 1), ("conv2d", 2), ("matmul", 0), ("matmul", 1)]


class TestSkippedInputGrads:
    """Ops skip gradients no input needs, launching exactly the same kernels."""

    @pytest.mark.parametrize("name,frozen", SKIP_CASES)
    def test_launches_and_needed_grads_unchanged(self, name, frozen):
        want_descs, want_grads = _recorded_backward(name, frozen=None)
        got_descs, got_grads = _recorded_backward(name, frozen)
        assert got_descs == want_descs
        for i, (got, want) in enumerate(zip(got_grads, want_grads)):
            if i == frozen:
                assert got is None
            else:
                assert got.data.dtype == want.data.dtype
                assert got.data.shape == want.data.shape
                assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("name,frozen", SKIP_CASES)
    def test_unneeded_grad_is_none(self, name, frozen):
        op, arrays, kwargs = _skip_case(name)
        ctx = Context()
        out = op.forward(ctx, *arrays, **kwargs)
        ctx.needs_input_grad = tuple(i != frozen for i in range(len(arrays)))
        grads = op.backward(ctx, np.ones_like(out))
        assert [g is None for g in grads] == [i == frozen for i in range(len(arrays))]

    @pytest.mark.parametrize("name", ["linear", "conv2d", "matmul"])
    def test_fresh_context_returns_every_grad(self, name):
        op, arrays, kwargs = _skip_case(name)
        ctx = Context()
        out = op.forward(ctx, *arrays, **kwargs)
        grads = op.backward(ctx, np.ones_like(out))
        assert len(grads) == len(arrays)
        for grad, array in zip(grads, arrays):
            assert grad is not None and grad.shape == array.shape


class TestGradChecks:
    """Numeric gradient checks for every differentiable op family."""

    def test_add(self):
        check_grad(lambda t: t + t * 0.5, (3, 4))

    def test_sub_div(self):
        check_grad(lambda t: (t - 2.0) / 3.0, (2, 5))

    def test_mul_broadcast(self):
        w = Tensor(np.array([[2.0, 3.0, 4.0]], dtype=np.float32))
        check_grad(lambda t: t * w, (4, 3))

    def test_pow(self):
        check_grad(lambda t: t ** 2.0, (3, 3))

    def test_exp_log(self):
        check_grad(lambda t: F.log(F.exp(t) + 1.0), (4,))

    def test_sqrt(self):
        check_grad(lambda t: F.sqrt(t * t + 1.0), (5,))

    def test_tanh_sigmoid(self):
        check_grad(lambda t: F.tanh(t) + F.sigmoid(t), (6,))

    def test_relu_leaky(self):
        check_grad(lambda t: F.relu(t) + F.leaky_relu(t, 0.1), (10,), seed=3)

    def test_clamp(self):
        check_grad(lambda t: F.clamp(t, -0.5, 0.8), (10,), seed=2)

    def test_abs(self):
        check_grad(lambda t: F.abs(t + 0.1), (7,), seed=5)

    def test_maximum(self):
        other = Tensor(np.zeros(6, dtype=np.float32))
        check_grad(lambda t: F.maximum(t, other), (6,), seed=9)

    def test_where(self):
        cond = np.array([True, False, True, False])
        zero = Tensor(np.zeros(4, dtype=np.float32))
        check_grad(lambda t: F.where(cond, t * 2, zero), (4,))

    def test_matmul(self):
        w = Tensor(np.random.default_rng(1).normal(size=(4, 3)).astype(np.float32))
        check_grad(lambda t: F.matmul(t, w), (2, 4))

    def test_batched_matmul(self):
        w = Tensor(np.random.default_rng(1).normal(size=(2, 4, 3)).astype(np.float32))
        check_grad(lambda t: F.matmul(t, w), (2, 5, 4))

    def test_linear(self):
        w = Tensor(np.random.default_rng(2).normal(size=(3, 4)).astype(np.float32))
        b = Tensor(np.zeros(3, dtype=np.float32))
        check_grad(lambda t: F.linear(t, w, b), (5, 4))

    def test_sum_axis(self):
        check_grad(lambda t: t.sum(axis=1), (3, 4))

    def test_mean_keepdims(self):
        check_grad(lambda t: t.mean(axis=0, keepdims=True), (4, 2))

    def test_max_reduction(self):
        check_grad(lambda t: t.max(axis=1), (3, 5), seed=11)

    def test_softmax(self):
        check_grad(lambda t: F.softmax(t, axis=-1) * Tensor(
            np.arange(4, dtype=np.float32)), (3, 4))

    def test_log_softmax(self):
        check_grad(lambda t: F.log_softmax(t, axis=-1) * Tensor(
            np.arange(4, dtype=np.float32)), (2, 4))

    def test_index_select(self):
        idx = np.array([0, 2, 2, 1])
        check_grad(lambda t: F.index_select(t, idx), (3, 4))

    def test_scatter_add(self):
        idx = np.array([0, 1, 0, 2, 1])
        check_grad(lambda t: F.scatter_add(t, idx, 3), (5, 2))

    def test_segment_mean(self):
        idx = np.array([0, 0, 1, 1, 1])
        check_grad(lambda t: F.segment_mean(t, idx, 2), (5, 3))

    def test_segment_max(self):
        # well-separated values so the numeric gradient has no near-ties
        data = np.arange(12, dtype=np.float32).reshape(4, 3)[::-1].copy()
        idx = np.array([0, 1, 0, 1])
        t = Tensor(data.copy(), requires_grad=True)
        F.segment_max(t, idx, 2).sum().backward()
        expected = np.zeros((4, 3), dtype=np.float32)
        expected[0] = 1.0  # rows 0 and 1 hold the maxima of their segments
        expected[1] = 1.0
        np.testing.assert_allclose(t.grad.data, expected)

    def test_embedding(self):
        idx = np.array([1, 0, 1, 2])
        check_grad(lambda t: F.embedding(t, idx), (3, 4))

    def test_reshape_permute(self):
        check_grad(lambda t: t.reshape(6, 2).transpose(), (3, 4))

    def test_cat_stack(self):
        other = Tensor(np.ones((2, 3), dtype=np.float32))
        check_grad(lambda t: F.cat([t, other], axis=0), (2, 3))

    def test_slice(self):
        check_grad(lambda t: t[1:3, :2], (4, 4))

    def test_batch_norm(self):
        g = Tensor(np.ones(3, dtype=np.float32))
        b = Tensor(np.zeros(3, dtype=np.float32))
        check_grad(lambda t: F.batch_norm(t, g, b, channel_axis=1), (8, 3),
                   atol=5e-2, rtol=5e-2)

    def test_layer_norm(self):
        g = Tensor(np.ones(4, dtype=np.float32))
        b = Tensor(np.zeros(4, dtype=np.float32))
        check_grad(lambda t: F.layer_norm(t, g, b), (5, 4), atol=5e-2, rtol=5e-2)

    def test_cross_entropy(self):
        target = np.array([0, 2, 1])
        check_grad(lambda t: F.cross_entropy(t, target), (3, 4))

    def test_bce_with_logits(self):
        target = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        check_grad(lambda t: F.binary_cross_entropy_with_logits(t, target),
                   (2, 2))

    def test_mse(self):
        target = np.zeros((3, 2), dtype=np.float32)
        check_grad(lambda t: F.mse_loss(t, target), (3, 2))

    def test_conv2d(self):
        w = Tensor(np.random.default_rng(4).normal(size=(2, 3, 2, 2)).astype(np.float32) * 0.3)
        check_grad(lambda t: F.conv2d(t, w, stride=1, padding=1), (1, 3, 4, 4),
                   atol=5e-2, rtol=5e-2)

    def test_spmm(self):
        import scipy.sparse as sp

        from repro.tensor import SparseTensor

        adj = SparseTensor(sp.random(4, 4, 0.6, random_state=0, format="csr"))
        check_grad(lambda t: F.spmm(adj, t), (4, 3))
