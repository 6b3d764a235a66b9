"""The serving loop: coalesced batches executed on the simulated GPU.

A serving run is a pure function of ``(key, scale, qps, arrival, batch_max,
max_wait_us, requests, num_users, seed)``:

* requests come from :func:`repro.serve.arrivals.generate_requests` (seeded
  RNG streams, no wall clock);
* the dynamic batcher (:func:`repro.serve.queueing.run_queue`) runs entirely
  on the simulated clock — batch start times jump ``SimulatedGPU.clock_s``
  forward over idle gaps, and batch durations come out of the analytical
  kernel model;
* steady-state batches ride the capture/replay fast path
  (:mod:`repro.gpu.graph_capture`): the *first* batch of each distinct size
  dispatches real forward-only inference under an epoch recorder, and every
  later batch of that size replays the captured plan — the simulator's
  analogue of padded static-shape CUDA-Graph serving.  Batch latency is
  therefore a function of batch *size*, not of which entities were drawn
  (the deviation real static-shape serving makes too; DESIGN.md §10).

The model serves from its seeded initialization, without a training warm-up:
inference cost in the analytical model depends on shapes, never on weight
values, and skipping warm-up keeps serving HBM peaks free of training-only
allocations (optimizer state, saved activations).
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from ..canonical import report_digest
from ..core import registry
from ..core.params import SCALE, SEED, Param, resolve, table
from ..core.run import workload_run
from ..gpu import SimulatedGPU, SimulationConfig
from ..gpu.graph_capture import EpochPlan, _EpochRecorder, replay_epoch
from ..profiling import metrics, trace
from ..tensor import autograd
from .arrivals import ARRIVAL, NUM_USERS, QPS, REQUESTS, generate_requests
from .queueing import BatchRecord, ServedRequest, run_queue

#: bump when the serving report changes shape
SERVE_VERSION = 1

#: workloads with a forward-only serving entry point
SERVEABLE = ("DGCN", "PSAGE-MVL", "PSAGE-NWP")


#: every parameter of :func:`serve_run`: default, domain and CLI option
SERVE_PARAMS = table(
    SCALE,
    QPS,
    ARRIVAL,
    Param("batch_max", 8, low=1,
          help="batcher size cap (default: %(default)s)"),
    Param("max_wait_us", 2000.0, float, 0, help="longest the batcher "
          "holds the queue head (default: %(default)s)"),
    REQUESTS,
    NUM_USERS,
    SEED,
)


# -- per-workload serving engines ---------------------------------------------


class _PinSAGEEngine:
    """Request = an item id; step = embed the batch's items (no_grad)."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.population = int(workload.item_graph.num_nodes)
        self.seed = int(seed)

    def run(self, entities: np.ndarray) -> None:
        self.workload.embed_items(entities, np.random.default_rng(self.seed))


class _DeepGCNEngine:
    """Request = a molecule index; step = classify the batch (no_grad)."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.population = len(workload.dataset.graphs)

    def run(self, entities: np.ndarray) -> None:
        self.workload.evaluate(entities)


def make_engine(key: str, workload, seed: int):
    """The serving engine of ``key``, one of :data:`SERVEABLE`."""
    if key.startswith("PSAGE"):
        return _PinSAGEEngine(workload, seed)
    return _DeepGCNEngine(workload, seed)


# -- batch execution: capture once per size, replay thereafter ----------------


class BatchRunner:
    """Executes queued batches on the device, capture/replay per batch size.

    The first batch of each distinct size dispatches the engine's real
    inference step under an :class:`_EpochRecorder` (with the framework RNG
    restored to its serve-start snapshot, so neighborhood sampling inside the
    step is a function of batch size alone); later batches of that size
    replay the captured plan — pure clock arithmetic, no workload code.
    """

    def __init__(self, engine, device: SimulatedGPU, tracker=None,
                 seed: int = 0) -> None:
        from ..tensor import random as framework_random

        self.engine = engine
        self.device = device
        self.tracker = tracker
        self.seed = int(seed)
        self.plans: dict[int, EpochPlan] = {}
        #: "capture" | "replay", one entry per executed batch
        self.batch_modes: list[str] = []
        self._rng_state = framework_random.generator().bit_generator.state

    def run_batch(self, members, start_s: float) -> float:
        device = self.device
        # the device sat idle until this batch: advance both clocks
        device.clock_s = start_s
        device.host_clock_s = start_s
        plan = self.plans.get(len(members))
        if plan is None:
            self.plans[len(members)] = self._capture(members)
            self.batch_modes.append("capture")
        else:
            replay_epoch(plan, device, tracker=self.tracker)
            self.batch_modes.append("replay")
        # the server hands results back before admitting the next batch
        device.host_clock_s = device.clock_s
        return device.clock_s

    def _capture(self, members) -> EpochPlan:
        from ..tensor import random as framework_random

        framework_random.generator().bit_generator.state = self._rng_state
        stats = self.device.stats
        before = (
            stats.kernel_count, stats.transfer_count, stats.h2d_bytes,
            stats.d2h_bytes, stats.analysis_hits, stats.analysis_misses,
        )
        entities = np.array([m.entity for m in members], dtype=np.int64)
        recorder = _EpochRecorder(self.device)
        with recorder:
            with autograd.phase("serve"):
                self.engine.run(entities)
        return EpochPlan(
            events=recorder.finish(),
            metrics={},
            kernel_count=stats.kernel_count - before[0],
            transfer_count=stats.transfer_count - before[1],
            h2d_bytes=stats.h2d_bytes - before[2],
            d2h_bytes=stats.d2h_bytes - before[3],
            analysis_hits=stats.analysis_hits - before[4],
            analysis_misses=stats.analysis_misses - before[5],
        )


# -- reporting ----------------------------------------------------------------


def _quantiles_us(values_s: list[float]) -> dict[str, float]:
    arr = np.asarray(values_s, dtype=np.float64) * 1e6
    return {
        "mean": float(arr.mean()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
        "max": float(arr.max()),
    }


def build_report(
    key: str, params, served: list[ServedRequest], batches: list[BatchRecord],
    runner: BatchRunner, memory_stats: dict,
) -> dict:
    """Canonical serving report under the resolved ``params`` — every
    field exact-deterministic."""
    hist: dict[str, int] = {}
    for batch in batches:
        hist[str(batch.size)] = hist.get(str(batch.size), 0) + 1
    duration_s = max(s.complete_s for s in served)
    report = {
        "version": SERVE_VERSION,
        "workload": key,
        **vars(params),
        "completed": len(served),
        "duration_s": duration_s,
        "throughput_rps": len(served) / duration_s,
        "latency_us": _quantiles_us([s.latency_s for s in served]),
        "wait_us": _quantiles_us([s.wait_s for s in served]),
        "compute_us": _quantiles_us([s.compute_s for s in served]),
        "batches": len(batches),
        "batch_size_hist": hist,
        "mean_batch_size": len(served) / len(batches),
        "captured_plans": len(runner.plans),
        "replayed_batches": runner.batch_modes.count("replay"),
        "plan_kernels": {
            str(size): plan.kernel_count
            for size, plan in sorted(runner.plans.items())
        },
        "peak_live_bytes": memory_stats["peak_live_bytes"],
        "peak_reserved_bytes": memory_stats["peak_reserved_bytes"],
        "hbm_utilization": memory_stats["utilization"],
        "oom_events": memory_stats["oom_events"],
    }
    report["serve_digest"] = report_digest(report, "serve_digest")
    return report


# -- trace integration --------------------------------------------------------


def _emit_serve_spans(tracer, device: SimulatedGPU,
                      served: list[ServedRequest],
                      batches: list[BatchRecord],
                      runner: BatchRunner) -> None:
    """Batch spans on the ``serve`` stream, per-request waits on ``queue``."""
    pid = device.device_id
    for batch, mode in zip(batches, runner.batch_modes):
        tracer.add_span(
            f"batch {batch.index}", trace.CAT_SERVE, pid, "serve",
            batch.start_s, batch.complete_s,
            {"size": batch.size, "mode": mode,
             "dispatch_us": batch.dispatch_s * 1e6},
        )
    for s in served:
        tracer.add_span(
            f"req {s.request.index}", trace.CAT_QUEUE, pid, "queue",
            s.request.arrival_s, s.start_s,
            {"user": s.request.user, "entity": s.request.entity,
             "batch": s.batch},
        )


# -- entry points -------------------------------------------------------------


def serve_run(
    key: str,
    strict: bool = False,
    sim: Optional[SimulationConfig] = None,
    traced: bool = False,
    **params,
) -> tuple[dict, Optional[trace.Timeline]]:
    """Simulate one serving run; return (report, timeline-or-None).

    Runs on the run harness (:func:`repro.core.run.workload_run`) under
    device-memory tracking: the tracker attaches before build, so parameter
    HBM is part of the occupancy picture, and the cyclic GC is suspended,
    making the report a byte-deterministic function of its arguments.
    ``strict`` checks every launch against the GPU model's invariants and
    makes an HBM overflow raise.  ``params`` are :data:`SERVE_PARAMS` keywords.
    """
    p = resolve(SERVE_PARAMS, params)
    if key not in SERVEABLE:
        raise ValueError(
            f"workload {key!r} has no serving engine; serveable workloads: "
            f"{sorted(SERVEABLE)}"
        )
    spec = registry.get(key)
    with workload_run(partial(spec.build, scale=p.scale), p.seed, sim,
                      memory=True, strict=strict,
                      observe=trace.Tracer if traced else None) as run:
        engine = make_engine(key, run.workload, p.seed)
        reqs = generate_requests(p.requests, p.qps, arrival=p.arrival,
                                 population=engine.population,
                                 num_users=p.num_users, seed=p.seed)
        runner = BatchRunner(engine, run.device, tracker=run.tracker,
                             seed=p.seed)
        served, batches = run_queue(reqs, p.batch_max, p.max_wait_us * 1e-6,
                                    runner.run_batch)
        if traced:
            _emit_serve_spans(run.tracer, run.device, served, batches,
                              runner)
        memory_stats = run.device.memory.stats()

    report = build_report(key, p, served, batches, runner, memory_stats)
    metrics.collect_report("serve", report)
    return report, run.tracer.timeline() if traced else None
