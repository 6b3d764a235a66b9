"""Operations emit the right kernel classes to the device."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.gpu import OpClass, SimulatedGPU
from repro.tensor import SparseTensor, Tensor, functional as F
from repro.tensor.autograd import Context
from repro.tensor.ops.loss import BCEWithLogits


@pytest.fixture
def recorded():
    gpu = SimulatedGPU()
    with gpu.observe() as window:
        yield gpu, window


def descriptors(window):
    return [e[3] for e in window.entries() if e[0] == "K"]


def classes(window):
    return [d.op_class for d in descriptors(window)]


class TestKernelEmission:
    def test_cpu_tensors_emit_nothing(self, recorded):
        gpu, launches = recorded
        a = Tensor(np.ones(4))
        _ = a + a
        assert descriptors(launches) == []

    def test_add_emits_elementwise(self, recorded):
        gpu, launches = recorded
        a = Tensor(np.ones(4, dtype=np.float32), device=gpu, _skip_copy=True)
        _ = a + a
        assert classes(launches) == [OpClass.ELEMENTWISE]

    def test_matmul_emits_gemm(self, recorded):
        gpu, launches = recorded
        a = Tensor(np.ones((8, 8), dtype=np.float32), device=gpu, _skip_copy=True)
        _ = a @ a
        assert classes(launches) == [OpClass.GEMM]

    def test_matvec_classified_gemv(self, recorded):
        gpu, launches = recorded
        a = Tensor(np.ones((8, 8), dtype=np.float32), device=gpu, _skip_copy=True)
        v = Tensor(np.ones((8, 1), dtype=np.float32), device=gpu, _skip_copy=True)
        _ = a @ v
        assert classes(launches) == [OpClass.GEMV]

    def test_spmm_emits_spmm_with_real_indices(self, recorded):
        gpu, launches = recorded
        adj = SparseTensor(sp.random(16, 16, 0.3, random_state=0, format="csr"),
                           device=gpu)
        x = Tensor(np.ones((16, 4), dtype=np.float32), device=gpu, _skip_copy=True)
        _ = F.spmm(adj, x)
        assert classes(launches) == [OpClass.SPMM]
        assert descriptors(launches)[0].access.indices is not None

    def test_conv_emits_conv(self, recorded):
        gpu, launches = recorded
        x = Tensor(np.ones((1, 2, 5, 5), dtype=np.float32), device=gpu, _skip_copy=True)
        w = Tensor(np.ones((3, 2, 3, 3), dtype=np.float32), device=gpu, _skip_copy=True)
        _ = F.conv2d(x, w)
        assert OpClass.CONV2D in classes(launches)

    def test_index_select_and_backward_scatter(self, recorded):
        gpu, launches = recorded
        a = Tensor(np.ones((8, 4), dtype=np.float32), device=gpu,
                   requires_grad=True, _skip_copy=True)
        out = F.index_select(a, np.array([0, 3, 3]))
        out.sum().backward()
        ops = classes(launches)
        assert OpClass.INDEX_SELECT in ops
        assert OpClass.SCATTER in ops

    def test_sort_family_emits_sort(self, recorded):
        gpu, launches = recorded
        a = Tensor(np.random.default_rng(0).normal(size=64).astype(np.float32),
                   device=gpu, _skip_copy=True)
        F.sort(a)
        F.argsort(a)
        F.unique(a)
        F.topk(a, 5)
        assert OpClass.SORT in classes(launches)
        assert sum(c == OpClass.SORT for c in classes(launches)) >= 4

    def test_softmax_class(self, recorded):
        gpu, launches = recorded
        a = Tensor(np.ones((4, 4), dtype=np.float32), device=gpu, _skip_copy=True)
        _ = F.softmax(a)
        assert classes(launches) == [OpClass.SOFTMAX]

    def test_embedding_class(self, recorded):
        gpu, launches = recorded
        w = Tensor(np.ones((10, 4), dtype=np.float32), device=gpu, _skip_copy=True)
        _ = F.embedding(w, np.array([1, 2]))
        assert classes(launches) == [OpClass.EMBEDDING]

    def test_permute_emits_copy(self, recorded):
        gpu, launches = recorded
        a = Tensor(np.ones((4, 5), dtype=np.float32), device=gpu, _skip_copy=True)
        _ = a.transpose()
        assert classes(launches) == [OpClass.COPY]

    def test_reshape_is_free(self, recorded):
        gpu, launches = recorded
        a = Tensor(np.ones((4, 5), dtype=np.float32), device=gpu, _skip_copy=True)
        _ = a.reshape(20)
        assert descriptors(launches) == []

    def test_batchnorm_class(self, recorded):
        gpu, launches = recorded
        x = Tensor(np.ones((8, 3), dtype=np.float32), device=gpu, _skip_copy=True)
        g = Tensor(np.ones(3, dtype=np.float32), device=gpu, _skip_copy=True)
        b = Tensor(np.zeros(3, dtype=np.float32), device=gpu, _skip_copy=True)
        _ = F.batch_norm(x, g, b)
        assert classes(launches) == [OpClass.BATCHNORM]


class TestNumericsMatchNumpy:
    def test_sort_values(self):
        a = Tensor(np.array([3.0, 1.0, 2.0], dtype=np.float32))
        values, idx = F.sort(a)
        np.testing.assert_allclose(values, [1, 2, 3])
        np.testing.assert_array_equal(idx, [1, 2, 0])

    def test_unique_inverse(self):
        a = Tensor(np.array([2, 1, 2, 0], dtype=np.int64))
        uniq, inv = F.unique(a, return_inverse=True)
        np.testing.assert_array_equal(uniq, [0, 1, 2])
        np.testing.assert_array_equal(uniq[inv], [2, 1, 2, 0])

    def test_topk(self):
        a = Tensor(np.array([5.0, 1.0, 3.0, 4.0], dtype=np.float32))
        values, idx = F.topk(a, 2)
        np.testing.assert_allclose(values, [5, 4])

    def test_conv2d_matches_direct_computation(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        out = F.conv2d(Tensor(x), Tensor(w), stride=2, padding=1)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        expect = np.zeros((2, 4, 3, 3), dtype=np.float32)
        for n in range(2):
            for o in range(4):
                for i in range(3):
                    for j in range(3):
                        patch = xp[n, :, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3]
                        expect[n, o, i, j] = (patch * w[o]).sum()
        np.testing.assert_allclose(out.data, expect, rtol=1e-4, atol=1e-4)

    def test_spmm_matches_scipy(self):
        adj = SparseTensor(sp.random(6, 6, 0.5, random_state=1, format="csr"))
        x = np.random.default_rng(2).normal(size=(6, 3)).astype(np.float32)
        out = F.spmm(adj, Tensor(x))
        np.testing.assert_allclose(out.data, adj.scipy() @ x, rtol=1e-5)

    def test_sparse_transpose_cached(self):
        adj = SparseTensor(sp.random(5, 5, 0.5, random_state=3, format="csr"))
        assert adj.t() is adj.t()
        assert adj.t().t() is adj
        np.testing.assert_allclose(adj.t().scipy().toarray(),
                                   adj.scipy().T.toarray())

    def test_margin_ranking_loss(self):
        pos = Tensor(np.array([2.0, 2.0], dtype=np.float32))
        neg = Tensor(np.array([0.0, 3.0], dtype=np.float32))
        loss = F.margin_ranking_loss(pos, neg, margin=1.0)
        # relu(0-2+1)=0, relu(3-2+1)=2 -> mean 1
        assert loss.item() == pytest.approx(1.0)


def _reference_bce(x, t, pos_weight, grad):
    """BCE-with-logits written naively, one temporary per ufunc: the
    formulation the in-place :class:`BCEWithLogits` must reproduce byte for
    byte.  Returns the loss and the gradient."""
    weights = np.where(t > 0.5, np.float32(pos_weight), np.float32(1.0))
    elems = np.maximum(x, 0) - x * t + np.log1p(np.exp(-np.abs(x)))
    loss = np.asarray((elems * weights).mean(), dtype=x.dtype)
    sig = np.reciprocal(np.exp(np.negative(np.clip(x, -60, 60))) + 1.0)
    g = (sig - t) / x.size * weights * grad
    return loss, g.astype(x.dtype, copy=False)


class TestBCEWithLogitsInPlace:
    """ARGA's dense N x N reconstruction loss runs in place: the same bytes
    as the naive formulation, from a bounded number of input-sized
    buffers."""

    @pytest.mark.parametrize("shape", [(48, 48), (37, 91)])
    @pytest.mark.parametrize("soft", [False, True])
    @pytest.mark.parametrize("pos_weight", [1.0, 3.7])
    def test_bytes_match_reference(self, shape, soft, pos_weight):
        rng = np.random.default_rng(7)
        x = (rng.normal(size=shape) * 30).astype(np.float32)
        x.flat[:6] = [0.0, -0.0, 75.0, -75.0, 1e-30, -1e-30]
        t = rng.random(shape).astype(np.float32)
        if not soft:
            t = (t < 0.2).astype(np.float32)
        grad = np.asarray(np.float32(0.7))
        ctx = Context()
        loss = BCEWithLogits.forward(ctx, x, t, pos_weight)
        (g,) = BCEWithLogits.backward(ctx, grad)
        ref_loss, ref_g = _reference_bce(x, t, pos_weight, grad)
        assert loss.dtype == ref_loss.dtype
        assert loss.tobytes() == ref_loss.tobytes()
        assert g.dtype == ref_g.dtype and g.shape == shape
        assert g.tobytes() == ref_g.tobytes()

    def test_transient_footprint(self):
        """tracemalloc peaks, as multiples of the input's bytes: forward
        2.25x (the loss elements, one scratch buffer, a boolean positives
        mask), 1.25x kept for backward (the sigmoid and the mask), and
        backward 1x (the gradient itself)."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(512, 512)).astype(np.float32)
        t = (rng.random((512, 512)) < 0.1).astype(np.float32)
        ctx, grad = Context(), np.asarray(np.float32(1.0))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            BCEWithLogits.forward(ctx, x, t, 3.7)
            kept, forward_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            BCEWithLogits.backward(ctx, grad)
            backward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slack = 1.01 * x.nbytes
        assert forward_peak - base <= 2.25 * slack
        assert kept - base <= 1.25 * slack
        assert backward_peak - kept <= 1.0 * slack
