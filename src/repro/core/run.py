"""One run harness: how every single-device entry point sets up its run.

A profile, a memory report, a trace, a golden fingerprint, a sampled run
and a serving run all measure a workload the same way, and
:func:`workload_run` is that way, step by step:

1. reseed the framework RNG and make a fresh device;
2. when memory is tracked, suspend the cyclic garbage collector (every
   tracked free then happens at its refcount-determined instant) and
   install the device-memory tracker before the build, which runs under
   the ``setup`` phase (setup allocations count, setup time does not);
3. reset the device, so the run's clocks and counters start at zero;
4. when ``strict``, install the invariant checker
   (:mod:`repro.testing.invariants`); a tracked run's HBM overflow raises;
5. when the run is observed, open a trace session with the caller's
   ``fold`` and feed the tracker's live/reserved samples to it;
6. on exit, collect the device's gauges into the metrics registry.

The caller sets up nothing else: it runs its loop on ``run.device`` and
``run.workload`` and reads ``run.tracker`` / ``run.tracer`` afterwards.
"""

from __future__ import annotations

import contextlib
import gc
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..gpu import SimulatedGPU, SimulationConfig
from ..gpu import memory as gpu_memory
from ..profiling import metrics, trace
from ..tensor import autograd, manual_seed


@dataclass
class Run:
    """What :func:`workload_run` set up: the device, what ``build``
    returned, and the memory tracker and tracer when there are any."""

    device: SimulatedGPU
    workload: object = None
    tracker: Optional[gpu_memory.DeviceMemoryTracker] = None
    tracer: Optional[trace.Tracer] = None


@contextlib.contextmanager
def _gc_suspended():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def checking(devices: Sequence[SimulatedGPU], strict: bool):
    """Strict mode's invariant checker on each of ``devices`` for a block,
    when ``strict``; a violation raises at the faulting launch."""
    stack = contextlib.ExitStack()
    if strict:
        from ..testing.invariants import strict_mode

        for device in devices:
            stack.enter_context(strict_mode(device))
    return stack


@contextlib.contextmanager
def workload_run(build: Callable[[SimulatedGPU], object], seed: int = 0,
                 sim: Optional[SimulationConfig] = None, *,
                 memory: bool = False, strict: bool = False,
                 observe: Optional[type[trace.Tracer]] = None, fold=None):
    """Set up one run of ``build(device)``'s workload and yield its
    :class:`Run` (the module docstring lists the steps).

    ``observe`` is the :class:`~repro.profiling.trace.Tracer` class that
    traces the run (``None``: unobserved); a tracer already installed
    joins the run instead, so a caller's trace owns it.  ``fold`` receives
    each folded log window, as :func:`repro.profiling.trace.session`
    describes.
    """
    manual_seed(seed)
    device = SimulatedGPU(sim)
    run = Run(device)
    with contextlib.ExitStack() as stack:
        if memory:
            stack.enter_context(_gc_suspended())
            run.tracker = stack.enter_context(
                gpu_memory.track(device, strict=strict))
            with autograd.phase("setup"):
                run.workload = build(device)
        else:
            run.workload = build(device)
        device.reset()
        stack.enter_context(checking((device,), strict))
        if observe is not None:
            run.tracer = stack.enter_context(trace.session(
                devices=(device,), fold=fold,
                tracer=None if trace.active() else observe()))
            if run.tracker is not None:
                run.tracker.set_counter_sink(run.tracer.counter_sink(device))
        yield run
    metrics.collect_device(device)
