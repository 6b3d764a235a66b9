"""Simulated-GPU substrate: an analytical NVIDIA V100 model.

Public surface:

* :class:`SimulatedGPU` — one device; run kernels, copy data, read the
  clock, and open its event log for profilers (``observe()``).
* :class:`MultiGPUSystem` — several devices plus an NVLink allreduce model.
* :class:`KernelDescriptor` / :class:`KernelLaunch` — what ops emit and what
  ``SimulatedGPU.launch`` returns.
* Config dataclasses (:class:`DeviceConfig`, :data:`V100`, ...).
"""

from . import analysis_cache, memory
from .analysis_cache import AnalysisCache, AnalysisRecord
from .compression import CompressionResult, compress
from .config import (
    DEFAULT_SIMULATION,
    NVLINK2,
    V100,
    DeviceConfig,
    LinkConfig,
    OpClassProfile,
    SimulationConfig,
    StallModelConfig,
)
from .device import DeviceStats, SimulatedGPU
from .divergence import DivergenceResult, measure as measure_divergence
from .kernel import (
    FIGURE_CATEGORIES,
    AccessKind,
    AccessPattern,
    KernelDescriptor,
    KernelLaunch,
    MemoryMetrics,
    OpClass,
    StallBreakdown,
    TransferRecord,
)
from .memory import MemoryPool, OOMError, OOMEvent
from .multigpu import AllReduceCost, MultiGPUSystem

__all__ = [
    "AccessKind",
    "AnalysisCache",
    "AnalysisRecord",
    "analysis_cache",
    "CompressionResult",
    "compress",
    "AccessPattern",
    "AllReduceCost",
    "DEFAULT_SIMULATION",
    "DeviceConfig",
    "DeviceStats",
    "DivergenceResult",
    "FIGURE_CATEGORIES",
    "KernelDescriptor",
    "KernelLaunch",
    "LinkConfig",
    "MemoryMetrics",
    "MemoryPool",
    "memory",
    "MultiGPUSystem",
    "OOMError",
    "OOMEvent",
    "NVLINK2",
    "OpClass",
    "OpClassProfile",
    "SimulatedGPU",
    "SimulationConfig",
    "StallBreakdown",
    "StallModelConfig",
    "TransferRecord",
    "V100",
    "measure_divergence",
]
