"""Training drivers: single-device trainer, DDP scaling, mini-batch
loader, and partition-parallel / out-of-core sharded training."""

from .ddp import ScalingPoint, run_scaling_point, run_weak_scaling_point
from .loader import (
    SAMPLEABLE,
    NeighborLoader,
    PrefetchPipeline,
    sample_run,
    sampler_cost_s,
)
from .sharded import (
    SHARDABLE,
    PartGeometry,
    shard_run,
    train_numeric,
)
from .trainer import EpochResult, TimeToTrain, Trainer

__all__ = [
    "EpochResult",
    "NeighborLoader",
    "PartGeometry",
    "PrefetchPipeline",
    "SAMPLEABLE",
    "SHARDABLE",
    "ScalingPoint",
    "TimeToTrain",
    "Trainer",
    "run_scaling_point",
    "run_weak_scaling_point",
    "sample_run",
    "sampler_cost_s",
    "shard_run",
    "train_numeric",
]
