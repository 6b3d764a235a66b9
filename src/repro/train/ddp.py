"""DistributedDataParallel simulation for the Figure-9 scaling study.

Reproduces the semantics of the paper's multi-GPU implementations (PyTorch
DDP over NCCL ring allreduce on a 4xV100 NVLink node):

* one model replica per device; each optimizer step is followed by an
  allreduce of the full gradient payload;
* the global batch is *split* across replicas (per-device batch = B/N), so
  per-step kernel work shrinks while per-step fixed costs (kernel launches,
  per-level serialization, allreduce latency) do not — which is exactly why
  low-intensity workloads like TLSTM stop scaling;
* PSAGE's DGL batch sampler is incompatible with DDP, so its training data
  is replicated on every device: per-device compute does NOT shrink and the
  gradient traffic is pure overhead, making multi-GPU strictly slower, as
  the paper reports.

DDP shards are symmetric — every replica runs the same kernel-stream shape
on 1/N of the data — so the simulation trains a single replica on device 0
and charges its stream to every peer, then adds the collectives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import registry
from ..gpu import MultiGPUSystem, SimulationConfig
from ..tensor import manual_seed


@dataclass
class ScalingPoint:
    """One (workload, gpu count) measurement for Figure 9."""

    workload: str
    num_gpus: int
    epoch_time_s: float
    compute_time_s: float
    allreduce_time_s: float
    steps: int
    grad_bytes: int

    @property
    def speedup_base(self) -> float:
        return self.compute_time_s + self.allreduce_time_s


def _shard_batch(workload, num_devices: int):
    """Apply DDP splitting to a freshly built replica.

    The global batch and step count stay fixed (strong scaling): each
    replica gets batch B/N and, for dataset-driven epochs, a 1/N shard of
    the training indices — exactly what DistributedSampler + a per-GPU
    batch of B/N produce.  Returns the index shard (or None).
    """
    if hasattr(workload, "batch_size"):
        workload.batch_size = max(1, workload.batch_size // num_devices)
    ds = getattr(workload, "dataset", None)
    if ds is not None and hasattr(ds, "train_idx") and not hasattr(
        workload, "batches_per_epoch"
    ):
        return ds.train_idx[::num_devices]
    return None


def _count_steps(workload, num_devices: int = 1) -> int:
    """Optimizer steps per epoch, for the allreduce accounting."""
    if hasattr(workload, "batches_per_epoch"):
        return int(workload.batches_per_epoch)
    if hasattr(workload, "dataset") and hasattr(workload, "batch_size"):
        ds = workload.dataset
        n = ds.train_idx.size if hasattr(ds, "train_idx") else len(ds)
        return max(1, -(-(n // num_devices) // workload.batch_size))
    return 1


def run_scaling_point(
    key: str,
    num_gpus: int,
    scale: str = "scaling",
    epochs: int = 1,
    seed: int = 0,
    sim: SimulationConfig | None = None,
) -> ScalingPoint:
    """Train ``epochs`` of one workload on ``num_gpus`` simulated devices.

    Reseeds the framework RNG so each (workload, GPU-count) point is a pure
    function of its arguments — points are independent and the executor may
    run them on pool workers or replay them from the profile cache.
    """
    spec = registry.get(key)
    if spec.ddp == "none":
        raise ValueError(
            f"{key} is excluded from multi-GPU scaling (whole-graph training)"
        )
    manual_seed(seed)
    system = MultiGPUSystem(num_gpus, sim)
    device = system.devices[0]

    replica = spec.build(device=device, scale=scale)
    index_shard = None
    if spec.ddp == "batch" and num_gpus > 1:
        index_shard = _shard_batch(replica, num_gpus)
    # spec.ddp == "replicate" (PSAGE): the sampler ignores the DDP split, so
    # every device processes the full batch — nothing to shrink.

    grad_bytes = replica.optimizer.gradient_bytes()
    steps_per_epoch = _count_steps(replica, num_gpus if spec.ddp == "batch" else 1)

    rng = np.random.default_rng(seed)
    t0 = device.elapsed_s()
    transfer0 = device.stats.transfer_time_s
    for _ in range(epochs):
        if index_shard is not None:
            replica.train_epoch(rng, indices=index_shard)
        else:
            replica.train_epoch(rng)
    compute_time = (device.elapsed_s() - t0) / max(1, epochs)
    transfer_time = (device.stats.transfer_time_s - transfer0) / max(1, epochs)

    allreduce_time = 0.0
    if num_gpus > 1:
        cost = system.allreduce_cost(grad_bytes)
        allreduce_time = cost.duration_s * steps_per_epoch
    contention_time = 0.0
    if spec.ddp == "replicate" and num_gpus > 1:
        # The single host-side sampler feeds identical batches to every GPU;
        # staging the replicated data serializes on the host, so each extra
        # device stretches the H2D-bound portion of the epoch.
        contention_time = transfer_time * 0.5 * (num_gpus - 1)

    return ScalingPoint(
        workload=key,
        num_gpus=num_gpus,
        epoch_time_s=compute_time + allreduce_time + contention_time,
        compute_time_s=compute_time,
        allreduce_time_s=allreduce_time,
        steps=steps_per_epoch,
        grad_bytes=grad_bytes,
    )


def run_scaling_study(
    keys: list[str] | None = None,
    gpu_counts: tuple[int, ...] = (1, 2, 4),
    scale: str = "scaling",
    epochs: int = 1,
    seed: int = 0,
    jobs: int | None = None,
    cache=None,
) -> dict[str, dict[int, float]]:
    """Figure 9: time-per-epoch for each workload across GPU counts.

    The (workload × GPU-count) grid runs through the suite execution
    engine: every point is an independent simulation, so ``jobs`` workers
    measure them concurrently and ``cache`` replays unchanged points.
    """
    from ..core import executor

    if keys is None:
        keys = [k for k in registry.WORKLOAD_KEYS
                if registry.get(k).ddp != "none"]
    grid = [(key, n) for key in keys for n in gpu_counts]
    points = executor.run_scaling_points(grid, scale=scale, epochs=epochs,
                                         seed=seed, jobs=jobs, cache=cache)
    results: dict[str, dict[int, float]] = {key: {} for key in keys}
    for (key, n), point in zip(grid, points):
        results[key][n] = point.epoch_time_s
    return results


def trace_scaling_point(
    key: str,
    num_gpus: int,
    scale: str = "test",
    epochs: int = 1,
    seed: int = 0,
    sim: SimulationConfig | None = None,
):
    """Trace a DDP epoch: per-step allreduce interleaved with the stream.

    Unlike :func:`run_scaling_point` (which accounts the collectives
    analytically after timing the compute), the traced run performs a ring
    allreduce *inside every optimizer step* — registered as a pre-step hook,
    exactly where DDP's gradient synchronization sits between the backward
    kernels and the parameter-update kernels — so the timeline shows how
    bucket spans interleave with compute.

    DDP replicas are symmetric (every device runs the same stream shape on
    the same clock), so the simulation traces device 0 and replicates its
    spans to every peer pid.  The per-device batch is left at the workload's
    configured size: the per-device kernel *sequence* is therefore identical
    at every GPU count and only timestamps shift with the collectives —
    the invariant ``tests/test_train_ddp.py`` pins.
    """
    from ..gpu import MultiGPUSystem
    from ..profiling import trace
    from .trainer import Trainer

    spec = registry.get(key)
    if spec.ddp == "none" and num_gpus > 1:
        raise ValueError(
            f"{key} is excluded from multi-GPU scaling (whole-graph training)"
        )
    manual_seed(seed)
    system = MultiGPUSystem(num_gpus, sim)
    device = system.devices[0]
    replica = spec.build(device=device, scale=scale)
    device.reset()
    grad_bytes = replica.optimizer.gradient_bytes()

    hook = None
    if num_gpus > 1:
        def hook(_optimizer) -> None:
            system.allreduce(grad_bytes)

        replica.optimizer.add_pre_step_hook(hook)
    try:
        with trace.session(devices=(device,)) as tracer:
            Trainer(workload=replica, device=device).run(epochs=epochs,
                                                         seed=seed)
    finally:
        if hook is not None:
            replica.optimizer.remove_pre_step_hook(hook)
    timeline = tracer.timeline()
    if num_gpus > 1:
        timeline = timeline.replicate_device(0, range(1, num_gpus))
    return timeline


def run_weak_scaling_point(
    key: str,
    num_gpus: int,
    scale: str = "scaling",
    epochs: int = 1,
    seed: int = 0,
    sim: SimulationConfig | None = None,
) -> ScalingPoint:
    """Weak scaling (the paper's future-work study): the per-GPU batch stays
    fixed and the global batch grows with N, so per-device compute is
    constant and only the collectives grow.  Efficiency = T(1) / T(N)."""
    spec = registry.get(key)
    if spec.ddp == "none":
        raise ValueError(f"{key} is excluded from multi-GPU scaling")
    manual_seed(seed)
    system = MultiGPUSystem(num_gpus, sim)
    device = system.devices[0]

    replica = spec.build(device=device, scale=scale)
    grad_bytes = replica.optimizer.gradient_bytes()
    steps_per_epoch = _count_steps(replica, 1)

    rng = np.random.default_rng(seed)
    t0 = device.elapsed_s()
    for _ in range(epochs):
        replica.train_epoch(rng)
    compute_time = (device.elapsed_s() - t0) / max(1, epochs)

    allreduce_time = 0.0
    if num_gpus > 1:
        allreduce_time = (
            system.allreduce_cost(grad_bytes).duration_s * steps_per_epoch
        )
    return ScalingPoint(
        workload=key,
        num_gpus=num_gpus,
        epoch_time_s=compute_time + allreduce_time,
        compute_time_s=compute_time,
        allreduce_time_s=allreduce_time,
        steps=steps_per_epoch,
        grad_bytes=grad_bytes,
    )


def run_weak_scaling_study(
    keys: list[str] | None = None,
    gpu_counts: tuple[int, ...] = (1, 2, 4),
    scale: str = "scaling",
    seed: int = 0,
) -> dict[str, dict[int, float]]:
    """Weak-scaling efficiency table: values near 1.0 mean the collectives
    are hidden; below 1.0 the gradient traffic bites."""
    if keys is None:
        keys = [k for k in registry.WORKLOAD_KEYS
                if registry.get(k).ddp != "none"]
    results: dict[str, dict[int, float]] = {}
    for key in keys:
        results[key] = {}
        for n in gpu_counts:
            point = run_weak_scaling_point(key, n, scale=scale, seed=seed)
            results[key][n] = point.epoch_time_s
    return results
