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
on 1/N of the data — so the unit of multi-GPU work is one *replica stream*:
:func:`replica_stream` trains a single replica on the run harness
(:func:`repro.core.run.workload_run`), which collects that device's gauges;
the peers are not simulated.  A scaling point is arithmetic over one
stream.  A strong point (Fig. 9, fixed global batch) reads the split-N
stream of a ``ddp="batch"`` workload and the split-1 stream of a
``"replicate"`` one, and adds the allreduce of every step plus, for
replicated data, the host staging contention.  A weak point (fixed
per-device batch) reads the split-1 stream and adds the allreduce.
:func:`scaling_study`, the executor's ``scaling`` task, simulates each
distinct stream of one workload once and returns all its points.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from ..canonical import canonical_digest
from ..core import registry
from ..core.run import workload_run
from ..gpu import MultiGPUSystem, SimulationConfig

#: the workloads DDP can train: every key but whole-graph ARGA
DDP_KEYS = tuple(k for k in registry.WORKLOAD_KEYS
                 if registry.get(k).ddp != "none")

#: bump when the :func:`scaling_study` payload changes shape
SCALING_VERSION = 1


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


def _strong_split(key: str, num_gpus: int) -> int:
    """The split of a strong-scaling replica at ``num_gpus``: N for
    ``ddp="batch"`` (it trains 1/N of the global batch), 1 for
    ``"replicate"``, whose sampler ignores the DDP split."""
    return num_gpus if registry.get(key).ddp == "batch" else 1


def replica_stream(key: str, split: int, scale: str = "scaling",
                   epochs: int = 1, seed: int = 0,
                   sim: SimulationConfig | None = None) -> dict:
    """Train ``epochs`` of one DDP replica on 1/``split`` of the global
    batch, on the run harness: per-epoch compute and H2D transfer time, the
    gradient payload and the optimizer steps per epoch.

    ``split`` > 1 shrinks the batch and shards the training indices as
    :func:`_shard_batch` describes.  The harness reseeds and times from the
    reset after the build, so a stream is a pure function of its arguments
    and the executor may run it on a pool worker or replay it from the
    profile cache.
    """
    spec = registry.get(key)
    if spec.ddp == "none":
        raise ValueError(
            f"{key} is excluded from multi-GPU scaling (whole-graph training)"
        )
    with workload_run(partial(spec.build, scale=scale), seed, sim) as run:
        replica = run.workload
        index_shard = _shard_batch(replica, split) if split > 1 else None
        steps = _count_steps(replica, split)
        rng = np.random.default_rng(seed)
        for _ in range(epochs):
            if index_shard is not None:
                replica.train_epoch(rng, indices=index_shard)
            else:
                replica.train_epoch(rng)
    per_epoch = max(1, epochs)
    return {"split": split,
            "compute_time_s": run.device.elapsed_s() / per_epoch,
            "transfer_time_s": run.device.stats.transfer_time_s / per_epoch,
            "grad_bytes": replica.optimizer.gradient_bytes(),
            "steps": steps}


def _point(key: str, num_gpus: int, stream: dict, sim,
           contention_s: float = 0.0) -> ScalingPoint:
    allreduce = (MultiGPUSystem(num_gpus, sim)
                 .allreduce_cost(stream["grad_bytes"]).duration_s
                 * stream["steps"])
    compute = stream["compute_time_s"]
    return ScalingPoint(
        workload=key,
        num_gpus=num_gpus,
        epoch_time_s=compute + allreduce + contention_s,
        compute_time_s=compute,
        allreduce_time_s=allreduce,
        steps=stream["steps"],
        grad_bytes=stream["grad_bytes"],
    )


def strong_point(key: str, num_gpus: int, stream: dict,
                 sim: SimulationConfig | None = None) -> ScalingPoint:
    """Fig. 9's point at ``num_gpus`` over the :func:`_strong_split` stream:
    its compute plus an allreduce per step and, for replicated data, the
    staging contention."""
    contention = 0.0
    if registry.get(key).ddp == "replicate":
        # The single host-side sampler feeds identical batches to every GPU;
        # staging the replicated data serializes on the host, so each extra
        # device stretches the H2D-bound portion of the epoch.
        contention = stream["transfer_time_s"] * 0.5 * (num_gpus - 1)
    return _point(key, num_gpus, stream, sim, contention)


def weak_point(key: str, num_gpus: int, stream: dict,
               sim: SimulationConfig | None = None) -> ScalingPoint:
    """Weak scaling (the paper's future-work study) at ``num_gpus`` over the
    split-1 stream: the per-GPU batch stays fixed and the global batch grows
    with N, so per-device compute is constant and only the collectives grow.
    Efficiency = T(1) / T(N)."""
    return _point(key, num_gpus, stream, sim)


def run_scaling_point(key: str, num_gpus: int, scale: str = "scaling",
                      epochs: int = 1, seed: int = 0,
                      sim: SimulationConfig | None = None) -> ScalingPoint:
    """One Fig. 9 point, simulating its stream."""
    stream = replica_stream(key, _strong_split(key, num_gpus), scale, epochs,
                            seed, sim)
    return strong_point(key, num_gpus, stream, sim)


def run_weak_scaling_point(key: str, num_gpus: int, scale: str = "scaling",
                           epochs: int = 1, seed: int = 0,
                           sim: SimulationConfig | None = None
                           ) -> ScalingPoint:
    """One weak-scaling point, simulating its stream."""
    stream = replica_stream(key, 1, scale, epochs, seed, sim)
    return weak_point(key, num_gpus, stream, sim)


def scaling_study(key: str, gpu_counts=(1, 2, 4), scale: str = "scaling",
                  epochs: int = 1, seed: int = 0) -> dict:
    """One workload's strong and weak points at each of ``gpu_counts``,
    each distinct replica stream simulated once: the split-N streams of a
    ``ddp="batch"`` workload, and the split-1 stream that every weak point
    and every strong point of a ``"replicate"`` one reads.

    The payload (the executor's ``scaling`` task and the ``scaling`` golden
    family) holds the streams, the points as dicts and a digest of the rest.
    """
    splits = sorted({1, *(_strong_split(key, n) for n in gpu_counts)})
    streams = {split: replica_stream(key, split, scale, epochs, seed)
               for split in splits}
    study = {
        "version": SCALING_VERSION,
        "workload": key,
        "scale": scale,
        "epochs": epochs,
        "seed": seed,
        "gpu_counts": list(gpu_counts),
        "grad_bytes": streams[1]["grad_bytes"],
        "streams": list(streams.values()),
        "strong": [asdict(strong_point(key, n,
                                       streams[_strong_split(key, n)]))
                   for n in gpu_counts],
        "weak": [asdict(weak_point(key, n, streams[1])) for n in gpu_counts],
    }
    study["scaling_digest"] = canonical_digest(study)
    return study


def epoch_times(studies: dict, kind: str = "strong"
                ) -> dict[str, dict[int, float]]:
    """``{key: {gpus: seconds per epoch}}`` of the ``kind`` (``"strong"`` or
    ``"weak"``) points of :func:`scaling_study` payloads keyed by workload."""
    return {key: {p["num_gpus"]: p["epoch_time_s"] for p in study[kind]}
            for key, study in studies.items()}
