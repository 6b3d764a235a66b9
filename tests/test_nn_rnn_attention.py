"""Recurrent cells and multi-head attention."""

import numpy as np
import pytest

from repro.gpu import SimulatedGPU
from repro.tensor import Tensor, nn


class TestLSTMCell:
    def test_shapes_and_default_state(self):
        cell = nn.LSTMCell(6, 8)
        h, c = cell(Tensor(np.zeros((4, 6), dtype=np.float32)))
        assert h.shape == (4, 8) and c.shape == (4, 8)

    def test_fused_kernel_emitted(self):
        gpu = SimulatedGPU()
        cell = nn.LSTMCell(4, 4).to(gpu)
        with gpu.observe() as window:
            cell(Tensor(np.zeros((2, 4), dtype=np.float32), device=gpu,
                        _skip_copy=True))
        names = [e[3].name for e in window.entries() if e[0] == "K"]
        assert "fused_lstm_cell" in names

    def test_state_carries_information(self):
        cell = nn.LSTMCell(2, 3)
        x = Tensor(np.ones((1, 2), dtype=np.float32))
        h1, c1 = cell(x)
        h2, c2 = cell(x, (h1, c1))
        assert not np.allclose(h1.data, h2.data)

    def test_gradient_reaches_weights(self):
        cell = nn.LSTMCell(3, 4)
        h, c = cell(Tensor(np.ones((2, 3), dtype=np.float32)))
        (h.sum() + c.sum()).backward()
        assert cell.ih.weight.grad is not None
        assert np.abs(cell.ih.weight.grad.data).sum() > 0


class TestGRUCell:
    def test_shapes(self):
        cell = nn.GRUCell(5, 7)
        h = cell(Tensor(np.zeros((3, 5), dtype=np.float32)))
        assert h.shape == (3, 7)

    def test_bounded_output(self):
        cell = nn.GRUCell(4, 4)
        h = cell(Tensor(np.random.default_rng(0).normal(size=(8, 4)).astype(np.float32) * 10))
        assert np.abs(h.data).max() <= 1.0 + 1e-5


class TestTreeLSTMCell:
    def test_node_update_shapes(self):
        cell = nn.ChildSumTreeLSTMCell(4, 6)
        x = Tensor(np.zeros((5, 4), dtype=np.float32))
        zero = Tensor(np.zeros((5, 6), dtype=np.float32))
        h, c = cell.node_update(x, zero, zero)
        assert h.shape == (5, 6) and c.shape == (5, 6)

    def test_child_forget_gate_in_unit_interval(self):
        cell = nn.ChildSumTreeLSTMCell(4, 6)
        f = cell.child_forget(Tensor(np.ones((3, 4), dtype=np.float32)),
                              Tensor(np.ones((3, 6), dtype=np.float32)))
        assert np.all(f.data > 0) and np.all(f.data < 1)


class TestMultiheadAttention:
    def test_output_shape(self):
        attn = nn.MultiheadAttention(16, 4)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 5, 16)).astype(np.float32))
        assert attn(x, x, x).shape == (2, 5, 16)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            nn.MultiheadAttention(10, 3)

    def test_mask_blocks_attention(self):
        """A fully-masked key never influences the output."""
        attn = nn.MultiheadAttention(8, 2)
        attn.eval()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 4, 8)).astype(np.float32)
        mask = np.zeros((1, 1, 4, 4), dtype=np.float32)
        mask[:, :, :, 3] = -1e9  # nobody may attend to key 3
        out1 = attn(Tensor(x), Tensor(x), Tensor(x), attn_mask=mask)
        x2 = x.copy()
        x2[0, 3] += 100.0  # perturb the masked key/value
        # query row 3 changes (it is its own query), others must not
        out2 = attn(Tensor(x2), Tensor(x2), Tensor(x2), attn_mask=mask)
        np.testing.assert_allclose(out1.data[0, :3], out2.data[0, :3],
                                   rtol=1e-4, atol=1e-4)

    def test_gradients_flow(self):
        attn = nn.MultiheadAttention(8, 2)
        x = Tensor(np.random.default_rng(2).normal(size=(1, 3, 8)).astype(np.float32),
                   requires_grad=True)
        attn(x, x, x).sum().backward()
        assert x.grad is not None
        assert np.abs(x.grad.data).sum() > 0
