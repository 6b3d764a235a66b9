"""Optimizers (SGD, Adam).

Parameter updates run as elementwise kernels on the device — the optimizer
phase is a real part of the paper's profiled training time (and contributes
substantially to the elementwise share of deep models like DeepGCN).
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from ..gpu import memory as gpu_memory
from . import autograd
from .nn.module import Parameter
from .ops.base import launch_elementwise


class Optimizer:
    #: what a step carries into the next one, beside the parameters: the
    #: attributes holding one state array per parameter, and the scalar
    #: attributes a step updates.  This is the state a steady-state snapshot
    #: keeps; scratch a step writes before it reads is not part of it.
    state_arrays: tuple[str, ...] = ()
    state_scalars: tuple[str, ...] = ()

    def __init__(self, params: Iterable[Parameter]) -> None:
        self.params = [p for p in params]
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        #: called (with this optimizer) right before the update kernels of
        #: each step — where DDP's gradient allreduce sits.  Empty unless a
        #: traced multi-GPU run registers one, so the hot path only pays an
        #: empty-list iteration per step.
        self._pre_step_hooks: list = []

    def add_pre_step_hook(self, hook) -> None:
        self._pre_step_hooks.append(hook)

    def remove_pre_step_hook(self, hook) -> None:
        self._pre_step_hooks.remove(hook)

    def zero_grad(self) -> None:
        """PyTorch 1.5 semantics: one fill kernel per gradient buffer."""
        for p in self.params:
            if p.grad is not None:
                launch_elementwise(p.device, "zero_fill", p.size, 0,
                                   kind="copy")
            p.grad = None

    def step(self) -> None:
        for hook in self._pre_step_hooks:
            hook(self)
        with autograd.phase("optimizer"):
            self._step()

    def _step(self) -> None:
        raise NotImplementedError

    def gradient_bytes(self) -> int:
        """Total gradient payload (what DDP must allreduce each step)."""
        return sum(p.nbytes for p in self.params)


class SGD(Optimizer):
    state_arrays = ("_velocity",)

    def __init__(self, params, lr: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0) -> None:
        super().__init__(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]
        if gpu_memory._TRACKER is not None:
            for p, vel in zip(self.params, self._velocity):
                gpu_memory.notify_alloc(p.device, vel, "sgd_momentum")

    def _step(self) -> None:
        tracking = gpu_memory._TRACKER is not None
        for p, vel in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            g = p.grad.data
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self.momentum:
                vel *= self.momentum
                vel += g
                g = vel
                launch_elementwise(p.device, "sgd_momentum_mul_add", p.size, 2)
            p.data = p.data - self.lr * g
            launch_elementwise(p.device, "sgd_weight_update", p.size, 2)
            if tracking:
                # the update wrote a fresh buffer (PyTorch-1.5 out-of-place
                # semantics); the displaced weights free via their finalizer
                gpu_memory.notify_alloc(p.device, p.data, "param_update")


class Adam(Optimizer):
    state_arrays = ("_m", "_v")
    state_scalars = ("t",)

    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0) -> None:
        super().__init__(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        #: reusable elementwise scratch, one buffer per parameter: the
        #: update math runs in place instead of allocating a temporary per
        #: ufunc (the operation order is unchanged, so the updates are
        #: bit-identical to the naive expression).  Every step writes it
        #: before reading it, so it is not state.
        self._scratch = [np.empty_like(p.data) for p in self.params]
        if gpu_memory._TRACKER is not None:
            state_labels = ((self._m, "adam_exp_avg"),
                            (self._v, "adam_exp_avg_sq"),
                            (self._scratch, "adam_scratch"))
            for buffers, label in state_labels:
                for p, buf in zip(self.params, buffers):
                    gpu_memory.notify_alloc(p.device, buf, label)

    def _step(self) -> None:
        tracking = gpu_memory._TRACKER is not None
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        step_size = self.lr * math.sqrt(bias2) / bias1
        for p, m, v, s in zip(self.params, self._m, self._v, self._scratch):
            if p.grad is None:
                continue
            g = p.grad.data
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=s)
            m += s
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=s)
            s *= g
            v += s
            np.sqrt(v, out=s)
            s += self.eps
            update = np.multiply(m, step_size)
            update /= s
            np.subtract(p.data, update, out=update)
            p.data = update
            if tracking:
                # unfused Adam materializes a new weight buffer per step —
                # real allocator churn the caching pool is meant to absorb
                gpu_memory.notify_alloc(p.device, p.data, "param_update")
            # PyTorch 1.5 (the paper's version) had no fused Adam: the step
            # is seven separate elementwise kernels per parameter tensor,
            # a large contributor to the elementwise share of deep models.
            for op in ("adam_mul_beta1", "adam_add_grad", "adam_mul_beta2",
                       "adam_addcmul_grad2", "adam_sqrt_v", "adam_add_eps_div",
                       "adam_weight_update"):
                launch_elementwise(p.device, op, p.size, 2)
