"""The characterization pipeline: run a workload under the full profiling
toolchain and collect every metric the paper's figures report."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from ..gpu import SimulationConfig
from ..profiling import (
    DivergenceInstrument,
    KernelProfiler,
    LaunchTable,
    SparsityTracker,
    metrics,
    trace,
)
from ..train.trainer import Trainer
from . import registry
from .run import Run, workload_run


@dataclass
class WorkloadProfile:
    """Everything measured from profiling one workload's training.

    A profile holds aggregates only: the profilers reduce the run's launch
    tables epoch by epoch (see :func:`_observed_profile`), and nothing here
    refers to the trained workload, its model or its device, so a suite of
    profiles keeps none of its runs alive.
    """

    key: str
    spec: registry.WorkloadSpec
    kernels: KernelProfiler
    sparsity: SparsityTracker
    divergence: DivergenceInstrument
    epoch_times: list[float]
    train_metrics: list[dict[str, float]]
    sim_time_s: float
    launch_count: int
    #: model + Adam-state device bytes, captured at profile time so the
    #: memory view survives pickling across process boundaries
    model_bytes: float = 0.0
    #: launch-analysis cache outcome over this run (repro.gpu.analysis_cache):
    #: hits replayed a memoized (memory, timing, stalls) triple, misses ran
    #: the cold pipeline.  hits + misses == launch_count.
    analysis_hits: int = 0
    analysis_misses: int = 0
    #: :meth:`repro.profiling.trace.Timeline.summary` of the profiled run —
    #: wall-clock, device idle fraction, compute/transfer overlap and
    #: per-phase occupancy (small and picklable; the full span list is not
    #: retained across cache/process boundaries)
    timeline_summary: dict = field(default_factory=dict)
    #: the scale and seed the workload ran at (with ``len(epoch_times)``,
    #: the parameters a profile is a pure function of)
    scale: str = ""
    seed: int = 0

    # -- figure accessors ---------------------------------------------------
    def op_breakdown(self) -> dict[str, float]:
        return self.kernels.op_time_breakdown()

    def instruction_mix(self) -> dict[str, float]:
        return self.kernels.instruction_mix()

    def throughput(self) -> dict[str, float]:
        return self.kernels.throughput()

    def stalls(self) -> dict[str, float]:
        return self.kernels.stall_breakdown()

    def cache(self) -> dict[str, float]:
        stats = self.kernels.cache_stats()
        stats["divergent_loads"] = self.divergence.divergent_load_fraction()
        return stats

    def transfer_sparsity(self) -> float:
        return self.sparsity.average_sparsity()

    def memory_footprint(self) -> dict[str, float]:
        """Device-memory occupancy split (the paper: the input graph can
        occupy up to 90% of GPU memory, motivating compression).

        Returns bytes for the model (parameters + Adam state) and for the
        training data shipped per epoch, plus the data fraction.
        """
        model_bytes = float(self.model_bytes)
        data_bytes = float(self.sparsity.total_bytes())
        epochs = max(1, len(self.epoch_times))
        data_bytes /= epochs
        total = model_bytes + data_bytes
        return {
            "model_bytes": model_bytes,
            "data_bytes_per_epoch": data_bytes,
            "data_fraction": data_bytes / total if total else 0.0,
        }

    def sparsity_timeline(self) -> np.ndarray:
        return self.sparsity.timeline()


def profile_workload(
    key: str,
    scale: str = "profile",
    epochs: int = 1,
    seed: int = 0,
    sim: Optional[SimulationConfig] = None,
    strict: bool = False,
) -> WorkloadProfile:
    """Train ``epochs`` of a workload on a freshly instrumented device.

    With ``strict=True`` every launch and transfer is additionally validated
    against the GPU model's physical-consistency invariants
    (:mod:`repro.testing.invariants`), raising on the first violation.

    The run harness (:func:`repro.core.run.workload_run`) reseeds the
    framework RNG first, so the profile is a pure function of ``(key,
    scale, epochs, seed)`` — never of hidden RNG state left by earlier
    runs.  That property is what lets the executor cache profiles on disk
    and fan them out over worker processes while staying bit-identical to
    a serial run.  The build happens before the device reset: the paper
    profiles *training*, so one-off setup work (weight H2D copies, dataset
    staging) is excluded.
    """
    spec = registry.get(key)

    def train(run: Run) -> tuple[list[float], list[dict]]:
        results = Trainer(workload=run.workload, device=run.device).run(
            epochs=epochs, seed=seed)
        return [r.sim_time_s for r in results], [r.metrics for r in results]

    return _observed_profile(key, spec, partial(spec.build, scale=scale),
                             train, scale, seed, sim, strict)


def _observed_profile(key: str, spec: registry.WorkloadSpec, build, train,
                      scale: str, seed: int,
                      sim: Optional[SimulationConfig] = None,
                      strict: bool = False) -> WorkloadProfile:
    """Run ``train(run)`` (-> epoch times, train metrics) on ``build``'s
    workload under a trace session, folding its event log into a profile.

    The profilers reduce the launch table the tracer builds of each
    epoch's log window, which restarts after each fold, so the run holds at
    most one epoch of log; every reduction adds launches in launch order,
    so epoch chunks give the aggregates a whole-run table would.  This
    holds too when the caller brought a tracer of their own: their trace
    owns the run and the timeline summary is theirs.
    """
    kernels, divergence = KernelProfiler(), DivergenceInstrument()
    sparsity = SparsityTracker()

    def fold(entries: list[tuple], table: LaunchTable) -> None:
        kernels.on_launch(table)
        divergence.on_launch(table)
        sparsity.on_transfer(table)

    owned = trace.active() is None
    with workload_run(build, seed, sim, strict=strict, observe=trace.Tracer,
                      fold=fold) as run:
        epoch_times, train_metrics = train(run)
    device, workload = run.device, run.workload
    profile = WorkloadProfile(
        key=key,
        spec=spec,
        kernels=kernels,
        sparsity=sparsity,
        divergence=divergence,
        epoch_times=epoch_times,
        train_metrics=train_metrics,
        sim_time_s=device.elapsed_s(),
        launch_count=device.stats.kernel_count,
        analysis_hits=device.stats.analysis_hits,
        analysis_misses=device.stats.analysis_misses,
        timeline_summary=run.tracer.timeline().summary() if owned else {},
        scale=scale,
        seed=seed,
    )
    if hasattr(workload, "model"):
        # Adam keeps two fp32 moments per parameter
        profile.model_bytes = float(workload.model.parameter_bytes() * 3)
    # Absorb the run's stall and cache tallies into the process-wide
    # metrics registry (the harness collected the device's).
    metrics.collect_profile(profile)
    return profile


def measure_memory(
    key: str,
    scale: str = "test",
    epochs: int = 1,
    seed: int = 0,
    sim: Optional[SimulationConfig] = None,
    strict: bool = False,
    mode: Optional[str] = None,
) -> dict:
    """Train a workload under device-memory tracking and report HBM usage.

    Unlike :func:`profile_workload`, the tracker attaches *before* build so
    parameter and optimizer-state allocations are captured (the clock still
    resets after build — setup time stays excluded, setup memory doesn't).
    With ``strict=True`` exceeding the configured HBM capacity raises
    :class:`repro.gpu.memory.OOMError` instead of warning, and the
    invariant checker validates every launch.

    ``mode`` (``None`` / ``"steady"`` / ``"capture"``) selects the training
    loop exactly as in :func:`repro.profiling.trace.trace_workload`; the
    mode is deliberately left out of the report so steady and capture-replay
    snapshots stay directly comparable — the memory-differential tests rely
    on it.

    The harness suspends the cyclic garbage collector for the run, so every
    tracked free happens at its refcount-determined instant — the report
    (and its digest) is a pure function of ``(key, scale, epochs, seed)``,
    making memory snapshots golden-testable across jobs/cache
    configurations.
    """
    spec = registry.get(key)
    with workload_run(partial(spec.build, scale=scale), seed, sim,
                      memory=True, strict=strict) as run:
        Trainer(workload=run.workload, device=run.device,
                steady=mode == "steady",
                capture_replay=mode == "capture").run(epochs=epochs,
                                                      seed=seed)
        return run.tracker.report(workload=key, scale=scale, epochs=epochs,
                                  seed=seed)


@dataclass
class SuiteProfile:
    """Profiles for every requested workload, plus suite-level summaries."""

    profiles: dict[str, WorkloadProfile] = field(default_factory=dict)

    def __getitem__(self, key: str) -> WorkloadProfile:
        return self.profiles[key]

    def keys(self):
        return self.profiles.keys()

    def mean_over_workloads(self, getter) -> dict[str, float]:
        """Average a per-workload dict metric across the suite."""
        acc: dict[str, list[float]] = {}
        for profile in self.profiles.values():
            for name, value in getter(profile).items():
                acc.setdefault(name, []).append(value)
        return {name: float(np.mean(values)) for name, values in acc.items()}


def profile_suite(
    keys: Optional[list[str]] = None,
    scale: str = "profile",
    epochs: int = 1,
    seed: int = 0,
    strict: bool = False,
    jobs: Optional[int] = None,
    cache=None,
) -> SuiteProfile:
    """Profile the whole suite (Figures 2-8 derive from this).

    Delegates to :mod:`repro.core.executor`: ``jobs`` workloads are
    characterized concurrently on a process pool (``None`` → ``$REPRO_JOBS``,
    default serial) and ``cache`` (``True`` or a
    :class:`~repro.core.cache.ProfileCache`) replays unchanged profiles
    from disk.  All paths produce bit-identical kernel streams because
    :func:`profile_workload` is self-seeding.
    """
    from . import executor

    return executor.run_suite(keys, scale=scale, epochs=epochs, seed=seed,
                              strict=strict, jobs=jobs, cache=cache)


def profile_inference(
    key: str,
    scale: str = "profile",
    seed: int = 0,
    sim: Optional[SimulationConfig] = None,
) -> WorkloadProfile:
    """Profile a workload's *inference* pass (the paper's planned extension:
    train first, then characterize forward-only execution).

    One warm-up training epoch, part of the build, brings the model off its
    initialization; instrumentation then captures only the no-grad
    evaluation pass.

    Instrumentation is :func:`profile_workload`'s, so inference profiles
    carry ``timeline_summary`` with forward-phase spans and the model
    footprint, and land in the metrics registry.
    """
    spec = registry.get(key)
    rng = np.random.default_rng(seed)

    def build(device):
        workload = spec.build(device=device, scale=scale)
        workload.train_epoch(rng)
        return workload

    def infer(run: Run) -> tuple[list[float], list[dict]]:
        _run_inference(key, run.workload, rng)
        return [run.device.elapsed_s()], []

    return _observed_profile(key, spec, build, infer, scale, seed, sim)


def _run_inference(key: str, workload, rng) -> None:
    """Dispatch to each workload's forward-only evaluation path."""
    if key.startswith("PSAGE"):
        workload.evaluate(rng)
    elif key == "STGCN":
        workload.evaluate_mae(num_batches=2)
    elif key == "ARGA":
        workload.embeddings()
    elif hasattr(workload, "evaluate"):
        ds = workload.dataset
        indices = ds.val_idx if hasattr(ds, "val_idx") else None
        workload.evaluate(indices)
    else:  # pragma: no cover - all workloads currently covered above
        raise ValueError(f"{key} has no inference path")
