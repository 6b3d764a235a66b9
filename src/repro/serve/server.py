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

import contextlib
from typing import Optional

import numpy as np

from ..canonical import canonical_digest
from ..core import registry
from ..gpu import SimulatedGPU, SimulationConfig
from ..gpu import memory as gpu_memory
from ..gpu.graph_capture import EpochPlan, _EpochRecorder, replay_epoch
from ..profiling import trace
from ..tensor import autograd, manual_seed
from .arrivals import ARRIVALS, generate_requests
from .queueing import BatchRecord, ServedRequest, run_queue

#: bump when the serving report changes shape
SERVE_VERSION = 1

#: workloads with a forward-only serving entry point
SERVEABLE = ("DGCN", "PSAGE-MVL", "PSAGE-NWP")


def validate_serving_config(qps: float, batch_max: int, max_wait_us: float,
                            requests: int) -> None:
    """Raise ``ValueError`` with a usable message on contradictory knobs."""
    if not qps > 0:
        raise ValueError(f"qps must be > 0, got {qps}")
    if batch_max < 1:
        raise ValueError(f"batch-max must be >= 1, got {batch_max}")
    if not max_wait_us >= 0:
        raise ValueError(f"max-wait-us must be >= 0, got {max_wait_us}")
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")


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
    if key.startswith("PSAGE"):
        return _PinSAGEEngine(workload, seed)
    if key == "DGCN":
        return _DeepGCNEngine(workload, seed)
    raise ValueError(
        f"workload {key!r} has no serving engine; serveable workloads: "
        f"{sorted(SERVEABLE)}"
    )


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


def digest_report(report: dict) -> str:
    """SHA-256 over the canonical JSON of a report (digest field excluded)."""
    return canonical_digest(
        {k: v for k, v in report.items() if k != "serve_digest"})


def build_report(
    key: str, scale: str, qps: float, arrival: str, batch_max: int,
    max_wait_us: float, num_users: int, seed: int,
    served: list[ServedRequest], batches: list[BatchRecord],
    runner: BatchRunner, memory_stats: dict,
) -> dict:
    """Canonical serving report — every field exact-deterministic."""
    hist: dict[str, int] = {}
    for batch in batches:
        hist[str(batch.size)] = hist.get(str(batch.size), 0) + 1
    duration_s = max(s.complete_s for s in served)
    report = {
        "version": SERVE_VERSION,
        "workload": key,
        "scale": scale,
        "qps": float(qps),
        "arrival": arrival,
        "batch_max": int(batch_max),
        "max_wait_us": float(max_wait_us),
        "requests": len(served),
        "num_users": int(num_users),
        "seed": int(seed),
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
    report["serve_digest"] = digest_report(report)
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
    scale: str = "test",
    qps: float = 100.0,
    arrival: str = "poisson",
    batch_max: int = 8,
    max_wait_us: float = 2000.0,
    requests: int = 256,
    num_users: int = 64,
    seed: int = 0,
    strict: bool = False,
    sim: Optional[SimulationConfig] = None,
    traced: bool = False,
) -> tuple[dict, Optional[trace.Timeline]]:
    """Simulate one serving run; return (report, timeline-or-None).

    Runs under device-memory tracking (the tracker attaches before build, as
    :func:`repro.core.characterize.measure_memory` does, so parameter HBM is
    part of the occupancy picture) with the cyclic GC suspended, making the
    report a byte-deterministic function of its arguments.
    """
    import gc

    validate_serving_config(qps, batch_max, max_wait_us, requests)
    if arrival not in ARRIVALS:
        raise ValueError(f"arrival must be one of {list(ARRIVALS)}, "
                         f"got {arrival!r}")
    if key not in SERVEABLE:
        raise ValueError(
            f"workload {key!r} has no serving engine; serveable workloads: "
            f"{sorted(SERVEABLE)}"
        )
    spec = registry.get(key)
    manual_seed(seed)
    device = SimulatedGPU(sim)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    timeline: Optional[trace.Timeline] = None
    try:
        with gpu_memory.track(device, strict=strict) as tracker:
            with autograd.phase("setup"):
                workload = spec.build(device=device, scale=scale)
            device.reset()
            engine = make_engine(key, workload, seed)
            reqs = generate_requests(requests, qps, arrival=arrival,
                                     population=engine.population,
                                     num_users=num_users, seed=seed)
            trace_ctx = (trace.session(devices=(device,)) if traced
                         else contextlib.nullcontext(None))
            with trace_ctx as tracer:
                if tracer is not None:
                    tracker.set_counter_sink(tracer.counter_sink(device))
                runner = BatchRunner(engine, device, tracker=tracker,
                                     seed=seed)
                served, batches = run_queue(reqs, batch_max,
                                            max_wait_us * 1e-6,
                                            runner.run_batch)
                if tracer is not None:
                    _emit_serve_spans(tracer, device, served, batches, runner)
            memory_stats = device.memory.stats()
            if traced:
                timeline = tracer.timeline()
    finally:
        if gc_was_enabled:
            gc.enable()

    report = build_report(key, scale, qps, arrival, batch_max, max_wait_us,
                          num_users, seed, served, batches, runner,
                          memory_stats)
    from ..profiling import metrics as metrics_mod

    metrics_mod.collect_device(device)
    metrics_mod.collect_serve(report)
    return report, timeline


def serve_report(
    key: str,
    scale: str = "test",
    qps: float = 100.0,
    arrival: str = "poisson",
    batch_max: int = 8,
    max_wait_us: float = 2000.0,
    requests: int = 256,
    num_users: int = 64,
    seed: int = 0,
    strict: bool = False,
) -> dict:
    """The picklable executor-task entry point (no timeline)."""
    report, _ = serve_run(key, scale=scale, qps=qps, arrival=arrival,
                          batch_max=batch_max, max_wait_us=max_wait_us,
                          requests=requests, num_users=num_users, seed=seed,
                          strict=strict, traced=False)
    return report
