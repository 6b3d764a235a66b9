"""Online inference serving simulation: arrivals, batching, queueing.

GNNMark characterizes *training*, but its recsys workloads (PinSage MVL/NWP)
ship as high-QPS inference services.  This package models that deployment on
the simulated clock: a seeded request generator (:mod:`arrivals`), a dynamic
batcher with ``max_batch_size`` / ``max_wait_us`` knobs (:mod:`queueing`),
and a serving loop that executes coalesced batches as forward-only inference
steps on a :class:`~repro.gpu.device.SimulatedGPU`, reusing the
capture/replay fast path for steady-state batches (:mod:`server`).
"""

from .arrivals import ARRIVALS, Request, generate_requests
from .queueing import BatchRecord, ServedRequest, run_queue
from .server import SERVE_VERSION, SERVEABLE, serve_run

__all__ = [
    "ARRIVALS",
    "Request",
    "generate_requests",
    "BatchRecord",
    "ServedRequest",
    "run_queue",
    "SERVE_VERSION",
    "SERVEABLE",
    "serve_run",
]
