"""Optimizers: convergence and kernel emission."""

import numpy as np
import pytest

from repro.gpu import SimulatedGPU
from repro.tensor import Tensor, functional as F, nn
from repro.tensor.optim import SGD, Adam, Optimizer


def _quadratic_steps(optimizer_cls, steps=60, **kw):
    """Minimize ||w - target||^2; returns final distance."""
    target = np.array([1.0, -2.0, 3.0], dtype=np.float32)
    w = nn.Parameter(np.zeros(3, dtype=np.float32))
    opt = optimizer_cls([w], **kw)
    for _ in range(steps):
        opt.zero_grad()
        loss = F.mse_loss(w, target)
        loss.backward()
        opt.step()
    return float(np.abs(w.data - target).max())


class TestConvergence:
    def test_sgd_converges(self):
        assert _quadratic_steps(SGD, lr=0.5, steps=100) < 0.05

    def test_sgd_momentum_converges(self):
        assert _quadratic_steps(SGD, lr=0.3, momentum=0.9, steps=100) < 0.1

    def test_adam_converges(self):
        assert _quadratic_steps(Adam, lr=0.2, steps=200) < 0.05

    def test_weight_decay_shrinks_solution(self):
        no_decay = _train_weight(weight_decay=0.0)
        decay = _train_weight(weight_decay=0.5)
        assert abs(decay) < abs(no_decay)


def _train_weight(weight_decay):
    w = nn.Parameter(np.array([5.0], dtype=np.float32))
    opt = SGD([w], lr=0.1, weight_decay=weight_decay)
    target = np.array([4.0], dtype=np.float32)
    for _ in range(100):
        opt.zero_grad()
        F.mse_loss(w, target).backward()
        opt.step()
    return float(w.data[0])


class TestKernelEmission:
    def test_adam_is_unfused_seven_kernels_per_param(self):
        """PyTorch 1.5 (the paper's version) had no fused Adam."""
        gpu = SimulatedGPU()
        layer = nn.Linear(4, 4).to(gpu)
        opt = Adam(layer.parameters())
        out = layer(Tensor(np.ones((2, 4), dtype=np.float32), device=gpu,
                           _skip_copy=True))
        out.sum().backward()
        with gpu.observe() as window:
            opt.step()
        names = [e[3].name for e in window.entries() if e[0] == "K"]
        adam_kernels = [n for n in names if n.startswith("adam_")]
        assert len(adam_kernels) == 7 * 2  # 7 kernels x (weight, bias)

    def test_optimizer_kernels_tagged_optimizer_phase(self):
        gpu = SimulatedGPU()
        layer = nn.Linear(2, 2).to(gpu)
        opt = SGD(layer.parameters(), lr=0.1)
        layer(Tensor(np.ones((1, 2), dtype=np.float32), device=gpu,
                     _skip_copy=True)).sum().backward()
        with gpu.observe() as window:
            opt.step()
        phases = [e[3].phase for e in window.entries() if e[0] == "K"]
        assert phases and all(p == "optimizer" for p in phases)

    def test_zero_grad_emits_fill_kernels(self):
        gpu = SimulatedGPU()
        layer = nn.Linear(2, 2).to(gpu)
        opt = SGD(layer.parameters(), lr=0.1)
        layer(Tensor(np.ones((1, 2), dtype=np.float32), device=gpu,
                     _skip_copy=True)).sum().backward()
        with gpu.observe() as window:
            opt.zero_grad()
        names = [e[3].name for e in window.entries() if e[0] == "K"]
        assert names.count("zero_fill") == 2

    def test_gradient_bytes(self):
        layer = nn.Linear(10, 10)
        opt = Adam(layer.parameters())
        assert opt.gradient_bytes() == (100 + 10) * 4

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Optimizer([])

    def test_step_skips_gradless_params(self):
        w = nn.Parameter(np.ones(2, dtype=np.float32))
        opt = Adam([w])
        opt.step()  # no grad: no update, no error
        np.testing.assert_allclose(w.data, 1.0)
