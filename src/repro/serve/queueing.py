"""The dynamic-batching queue: a pure, device-free model of the serving loop.

Semantics (see DESIGN.md §10).  Requests queue FIFO.  With head request
``h`` pending, the batcher commits to a dispatch time

    ``dispatch = min(h.arrival + max_wait, t_full)``

where ``t_full`` is the arrival time of the ``batch_max``-th queued request
(``inf`` if the queue never fills) — i.e. it launches as soon as the batch
is full, and never holds the head past its ``max_wait`` budget.  The batch
*starts* at ``start = max(dispatch, device_free)``; requests that arrive
while the device is still busy (``arrival <= start``) join the batch up to
``batch_max``, oldest first.  The executed batch occupies the device until
``run_batch`` says it completes.

``run_batch(members, start_s) -> complete_s`` is the only side-effecting
hook, which is what makes the model property-testable with a synthetic
service function (tests/test_serve_properties.py) and servable with a real
simulated GPU (:mod:`repro.serve.server`).

Guarantees, by construction (and pinned by the hypothesis suite):

* conservation — every request lands in exactly one batch;
* FIFO — members dequeue in arrival order, batches never reorder;
* ``1 <= len(members) <= batch_max``;
* ``dispatch - head.arrival <= max_wait`` for every batch (and every
  member, since non-head members arrived later);
* batches never overlap: ``start >= previous complete``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from .arrivals import Request


@dataclass(frozen=True)
class BatchRecord:
    """One executed batch: when it was committed, started and finished."""

    index: int
    dispatch_s: float
    start_s: float
    complete_s: float
    members: tuple[int, ...]  # request indices, FIFO order

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ServedRequest:
    """One completed request with its latency split."""

    request: Request
    batch: int
    start_s: float
    complete_s: float

    @property
    def wait_s(self) -> float:
        return self.start_s - self.request.arrival_s

    @property
    def compute_s(self) -> float:
        return self.complete_s - self.start_s

    @property
    def latency_s(self) -> float:
        return self.complete_s - self.request.arrival_s


def run_queue(
    requests: Sequence[Request],
    batch_max: int,
    max_wait_s: float,
    run_batch: Callable[[list[Request], float], float],
) -> tuple[list[ServedRequest], list[BatchRecord]]:
    """Drain ``requests`` through the dynamic batcher.

    Returns (served requests in completion order, executed batches in
    dispatch order).  ``run_batch`` receives the member list and the batch
    start time and returns the completion time on the same clock.
    """
    if batch_max < 1:
        raise ValueError(f"batch_max must be >= 1, got {batch_max}")
    if not max_wait_s >= 0:
        raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")

    order = sorted(requests, key=lambda r: (r.arrival_s, r.index))
    queue: deque[Request] = deque()
    served: list[ServedRequest] = []
    batches: list[BatchRecord] = []
    i, n = 0, len(order)
    free_s = 0.0

    while i < n or queue:
        if not queue:
            queue.append(order[i])
            i += 1
        head = queue[0]
        deadline = head.arrival_s + max_wait_s
        shortfall = batch_max - len(queue)
        if shortfall <= 0:
            t_full = queue[batch_max - 1].arrival_s
        elif i + shortfall - 1 < n:
            t_full = order[i + shortfall - 1].arrival_s
        else:
            t_full = math.inf
        dispatch_s = min(deadline, t_full)
        start_s = max(dispatch_s, free_s)
        while i < n and order[i].arrival_s <= start_s:
            queue.append(order[i])
            i += 1
        members = [queue.popleft()
                   for _ in range(min(batch_max, len(queue)))]
        complete_s = run_batch(members, start_s)
        if complete_s < start_s:
            raise RuntimeError(
                f"run_batch went backwards: start {start_s}, "
                f"complete {complete_s}"
            )
        free_s = complete_s
        record = BatchRecord(
            index=len(batches),
            dispatch_s=dispatch_s,
            start_s=start_s,
            complete_s=complete_s,
            members=tuple(m.index for m in members),
        )
        batches.append(record)
        served.extend(
            ServedRequest(request=m, batch=record.index,
                          start_s=start_s, complete_s=complete_s)
            for m in members
        )
    return served, batches
