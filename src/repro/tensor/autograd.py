"""Reverse-mode autograd tape.

Mirrors the PyTorch architecture at small scale: every differentiable
operation is a :class:`Function` with a ``forward`` that computes the numpy
result (and emits kernels to the simulated device) and a ``backward`` that
produces input gradients (emitting the backward kernels).  ``Tensor.backward``
walks the recorded graph in reverse topological order.

The *phase* context ("forward" / "backward" / "optimizer") tags every kernel
a region emits, so profilers can split training time the way the paper does.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Any, Optional, Sequence

import numpy as np

from ..gpu import memory as gpu_memory

if TYPE_CHECKING:  # pragma: no cover
    from .tensor import Tensor

_grad_enabled = True
_current_phase = "forward"

# memory telemetry attributes allocations to the phase that made them; the
# gpu layer can't import us, so hand it the phase accessor
gpu_memory.set_phase_provider(lambda: _current_phase)


def is_grad_enabled() -> bool:
    return _grad_enabled


@contextlib.contextmanager
def no_grad():
    """Disable graph recording (like ``torch.no_grad``)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextlib.contextmanager
def phase(name: str):
    """Tag kernels emitted inside the block with a training phase."""
    global _current_phase
    prev = _current_phase
    _current_phase = name
    try:
        yield
    finally:
        _current_phase = prev


def current_phase() -> str:
    return _current_phase


class _AllNeeded:
    """``needs_input_grad`` of a context no tape has recorded: every input
    needs its gradient, whatever its index."""

    __slots__ = ()

    def __getitem__(self, index: int) -> bool:
        return True

    def __repr__(self) -> str:
        return "ALL_NEEDED"


_ALL_NEEDED = _AllNeeded()


class Context:
    """Per-call scratch space connecting forward and backward.

    ``needs_input_grad[i]`` says whether the ``i``-th tensor input needs a
    gradient.  ``backward`` may return ``None`` for an input that does not,
    but must launch the same kernels either way.  Recorded calls read it
    from the tape; a fresh context needs every gradient.
    """

    __slots__ = ("saved", "device", "extras", "needs_input_grad")

    def __init__(self) -> None:
        self.saved: tuple = ()
        self.device = None
        self.extras: dict[str, Any] = {}
        self.needs_input_grad = _ALL_NEEDED

    def save_for_backward(self, *items: Any) -> None:
        self.saved = items
        tracker = gpu_memory._TRACKER
        if tracker is not None and self.device is tracker.device:
            # Saved activations pin device memory until backward consumes
            # them — the footprint component training is famous for.  Raw
            # arrays only: saved Tensors registered at creation already.
            for item in items:
                if isinstance(item, np.ndarray):
                    tracker.register(item, label="saved_activation")


class Function:
    """Base class for differentiable operations.

    Subclasses implement::

        @staticmethod
        def forward(ctx, *args, **kwargs) -> np.ndarray
        @staticmethod
        def backward(ctx, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]

    ``forward`` receives raw positional arguments where tensors have already
    been replaced by their numpy payloads is NOT done — it receives the
    original arguments, so it can reach ``.data`` and ``.device`` itself.
    ``backward`` returns one gradient (or None) per *tensor* argument of
    forward, in order.
    """

    def __init__(self) -> None:
        self.ctx = Context()
        self.inputs: tuple = ()
        self.needs_grad: tuple = ()

    @staticmethod
    def forward(ctx: Context, *args: Any, **kwargs: Any) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        raise NotImplementedError

    @classmethod
    def apply(cls, *args: Any, **kwargs: Any) -> "Tensor":
        from .tensor import Tensor

        fn = cls()
        tensor_args = tuple(a for a in args if isinstance(a, Tensor))
        device = None
        for t in tensor_args:
            if t.device is not None:
                device = t.device
                break
        fn.ctx.device = device

        out_data = cls.forward(fn.ctx, *args, **kwargs)
        requires = _grad_enabled and any(t.requires_grad for t in tensor_args)
        out = Tensor(out_data, device=device, requires_grad=requires, _skip_copy=True)
        if requires:
            fn.inputs = tensor_args
            fn.needs_grad = tuple(t.requires_grad for t in tensor_args)
            fn.ctx.needs_input_grad = fn.needs_grad
            out._ctx = fn
        return out


def topo_order(root: "Tensor") -> list["Tensor"]:
    """Reverse topological order of the autograd graph ending at ``root``."""
    order: list["Tensor"] = []
    seen: set[int] = set()
    stack: list[tuple["Tensor", bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if node._ctx is not None:
            for parent in node._ctx.inputs:
                if id(parent) not in seen:
                    stack.append((parent, False))
    order.reverse()
    return order


def backward(root: "Tensor", grad: Optional[np.ndarray] = None) -> None:
    """Run reverse-mode differentiation from ``root``."""
    from .tensor import Tensor
    from .ops import base as ops_base

    if grad is None:
        if root.data.size != 1:
            raise RuntimeError("backward() without gradient requires a scalar")
        grad = np.ones_like(root.data)

    grads: dict[int, np.ndarray] = {id(root): np.asarray(grad, dtype=root.data.dtype)}

    with phase("backward"):
        for node in topo_order(root):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._ctx is None:
                if node.requires_grad:
                    if node.grad is None:
                        # dtype passed explicitly: the grad must keep the
                        # leaf's precision even when float64 would otherwise
                        # be downcast.
                        node.grad = Tensor(
                            node_grad.copy(), device=node.device,
                            dtype=node_grad.dtype, _skip_copy=True
                        )
                    else:
                        ops_base.emit_accumulate(node.device, node_grad)
                        node.grad.data = node.grad.data + node_grad
                continue
            fn = node._ctx
            input_grads = fn.backward(fn.ctx, node_grad)
            if len(input_grads) != len(fn.inputs):
                raise RuntimeError(
                    f"{type(fn).__name__}.backward returned "
                    f"{len(input_grads)} grads for {len(fn.inputs)} inputs"
                )
            for parent, g, needs in zip(fn.inputs, input_grads, fn.needs_grad):
                if g is None or not needs:
                    continue
                g = np.asarray(g, dtype=parent.data.dtype)
                if g.shape != parent.data.shape:
                    raise RuntimeError(
                        f"{type(fn).__name__} produced grad of shape {g.shape} "
                        f"for input of shape {parent.data.shape}"
                    )
                key = id(parent)
                if key in grads:
                    ops_base.emit_accumulate(parent.device, g)
                    grads[key] = grads[key] + g
                else:
                    grads[key] = g
