"""GNN layers shared by the workload models."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.gpu import OpClass, SimulatedGPU
from repro.graph import Graph
from repro.graph.sampling import SampledBlock
from repro.models import (
    ChebGraphConv,
    GCNConv,
    GENConv,
    GINConv,
    InnerProductDecoder,
    MLPReadout,
    SAGEConv,
    gather_scatter,
)
from repro.tensor import SparseTensor, Tensor


def _features(n, d, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=(n, d)).astype(np.float32))


def _adj(n=8, seed=0):
    g = Graph.from_scipy(sp.random(n, n, 0.4, random_state=seed, format="csr"))
    return g.adjacency("sym", add_self_loops=True)


class TestGatherScatter:
    def test_sum_matches_manual(self):
        x = Tensor(np.arange(8, dtype=np.float32).reshape(4, 2))
        out = gather_scatter(x, np.array([0, 1, 2]), np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data[0], x.data[0] + x.data[1])
        np.testing.assert_allclose(out.data[1], x.data[2])

    def test_mean_reduce(self):
        x = Tensor(np.array([[2.0], [4.0]], dtype=np.float32))
        out = gather_scatter(x, np.array([0, 1]), np.array([0, 0]), 1,
                             reduce="mean")
        assert out.data[0, 0] == pytest.approx(3.0)

    def test_max_reduce(self):
        x = Tensor(np.array([[2.0], [4.0]], dtype=np.float32))
        out = gather_scatter(x, np.array([0, 1]), np.array([0, 0]), 1,
                             reduce="max")
        assert out.data[0, 0] == pytest.approx(4.0)

    def test_edge_weights_applied(self):
        x = Tensor(np.ones((2, 1), dtype=np.float32))
        out = gather_scatter(x, np.array([0, 1]), np.array([0, 0]), 1,
                             edge_weight=np.array([0.25, 0.5], dtype=np.float32))
        assert out.data[0, 0] == pytest.approx(0.75)

    def test_unknown_reduce_raises(self):
        with pytest.raises(ValueError):
            gather_scatter(_features(3, 2), np.array([0]), np.array([0]), 1,
                           reduce="median")


class TestConvLayers:
    def test_gcn_shapes(self):
        out = GCNConv(4, 6)(_adj(), _features(8, 4))
        assert out.shape == (8, 6)

    def test_gcn_dynamic_norm_emits_norm_kernels(self):
        gpu = SimulatedGPU()
        conv = GCNConv(4, 6, dynamic_norm=True)
        conv.to(gpu)
        x = _features(8, 4).to(gpu)
        with gpu.observe() as window:
            conv(_adj(), x)
        names = [e[3].name for e in window.entries() if e[0] == "K"]
        assert "gcn_norm_degree_scatter" in names
        assert "ew_edge_norm_mul" in names

    def test_cheb_k1_is_plain_linear(self):
        conv = ChebGraphConv(4, 6, k=1)
        x = _features(8, 4)
        out = conv(_adj(), x)
        expected = x.data @ conv.linears[0].weight.data.T + conv.linears[0].bias.data
        np.testing.assert_allclose(out.data, expected, rtol=1e-5)

    def test_cheb_k3_shapes_with_3d_input(self):
        conv = ChebGraphConv(4, 6, k=3)
        x = Tensor(np.random.default_rng(1).normal(size=(8, 5, 4)).astype(np.float32))
        assert conv(_adj(), x).shape == (8, 5, 6)

    def test_gin_shapes_and_grad(self):
        conv = GINConv(4, 8)
        x = _features(6, 4)
        x.requires_grad = True
        out = conv(x, np.array([0, 1, 2]), np.array([1, 2, 0]))
        out.sum().backward()
        assert out.shape == (6, 8)
        assert x.grad is not None

    def test_genconv_softmax_aggregation_weights(self):
        """GENConv softmax weights per destination sum to ~1 internally."""
        conv = GENConv(4)
        x = _features(5, 4, seed=2)
        out = conv(x, np.array([0, 1, 2, 3]), np.array([4, 4, 4, 4]))
        assert out.shape == (5, 4)
        assert np.isfinite(out.data).all()

    def test_sage_conv_normalizes_output(self):
        block = SampledBlock(
            src_nodes=np.arange(5),
            dst_nodes=np.arange(2),
            edge_src=np.array([2, 3, 4]),
            edge_dst=np.array([0, 0, 1]),
        )
        out = SAGEConv(4, 8)(block, _features(5, 4))
        norms = np.linalg.norm(out.data, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-3)

    def test_sage_conv_uses_importance_weights(self):
        block = SampledBlock(
            src_nodes=np.arange(3),
            dst_nodes=np.arange(1),
            edge_src=np.array([1, 2]),
            edge_dst=np.array([0, 0]),
            edge_weight=np.array([1.0, 0.0], dtype=np.float32),
        )
        conv = SAGEConv(4, 8)
        x = _features(3, 4, seed=5)
        out_weighted = conv(block, x)
        # zero-weight neighbor contributes nothing: same as dropping it
        block2 = SampledBlock(
            src_nodes=np.arange(3),
            dst_nodes=np.arange(1),
            edge_src=np.array([1]),
            edge_dst=np.array([0]),
            edge_weight=np.array([1.0], dtype=np.float32),
        )
        np.testing.assert_allclose(out_weighted.data, conv(block2, x).data,
                                   rtol=1e-4)


class TestHeads:
    def test_inner_product_decoder_symmetric(self):
        z = _features(6, 3)
        logits = InnerProductDecoder()(z)
        np.testing.assert_allclose(logits.data, logits.data.T, rtol=1e-4)

    def test_mlp_readout_pools_by_graph(self):
        head = MLPReadout(4, 3)
        x = _features(6, 4)
        out = head(x, np.array([0, 0, 0, 1, 1, 1]), 2)
        assert out.shape == (2, 3)
