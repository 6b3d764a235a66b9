"""The simulated GPU device.

A :class:`SimulatedGPU` keeps a simulated clock.  The tensor framework calls
:meth:`launch` for every kernel an operation would run on real hardware; the
device runs the analytical cache/timing/stall models and advances the clock
by the kernel duration plus launch overhead.  Host<->device copies go through
:meth:`h2d` / :meth:`d2h`, which measure the value sparsity of the actual
buffer — the paper's transfer-sparsity instrumentation.

The device itself only keeps aggregate counters, so arbitrarily long training
runs stay cheap.  Profilers observe it through one append-only event log,
open only while something observes (:meth:`SimulatedGPU.observe`; ``reset()``
closes it): each launch appends ``("K", launch_id, start_s, descriptor,
analysis_record)`` and each copy ``("T", TransferRecord)``, and while a
capture records, the memory pool's tap appends its ``("A", ...)``/
``("F", ...)`` events to the same list, keeping their order.  Every profiler
is a fold over its own window of the log.  Strict mode's invariant checker is
the one per-event hook (:attr:`SimulatedGPU.checker`), so a violation still
raises at the faulting launch.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import analysis_cache, memory, timing
from .config import DEFAULT_SIMULATION, SimulationConfig
from .kernel import KernelDescriptor, KernelLaunch, TransferRecord

#: live devices, tracked weakly so ``analysis_cache.clear()`` can flush every
#: per-device launch-site memo without pinning retired devices in memory.
_DEVICES: "weakref.WeakSet[SimulatedGPU]" = weakref.WeakSet()


def _clear_site_caches() -> None:
    for dev in _DEVICES:
        dev.site_records.clear()


def _reset_analysis_counters(_enabled: bool) -> None:
    # hit/miss ratios sampled under one caching discipline are meaningless
    # once the effective setting flips; start every regime from zero.
    for dev in _DEVICES:
        dev.stats.analysis_hits = 0
        dev.stats.analysis_misses = 0


analysis_cache.register_clear_hook(_clear_site_caches)
analysis_cache.register_toggle_hook(_reset_analysis_counters)


@dataclass
class DeviceStats:
    """Aggregate counters maintained by the device itself."""

    kernel_count: int = 0
    kernel_time_s: float = 0.0
    launch_overhead_s: float = 0.0
    transfer_count: int = 0
    transfer_time_s: float = 0.0
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    fp32_flops: float = 0.0
    int32_iops: float = 0.0
    #: launches whose analysis triple was replayed from the memoized
    #: launch-analysis cache vs. computed cold (repro.gpu.analysis_cache).
    analysis_hits: int = 0
    analysis_misses: int = 0

    def reset(self) -> None:
        self.kernel_count = 0
        self.kernel_time_s = 0.0
        self.launch_overhead_s = 0.0
        self.transfer_count = 0
        self.transfer_time_s = 0.0
        self.h2d_bytes = 0
        self.d2h_bytes = 0
        self.fp32_flops = 0.0
        self.int32_iops = 0.0
        self.analysis_hits = 0
        self.analysis_misses = 0


class LogWindow:
    """One observer's span of a device's event log.

    Entering opens the device's log unless one is already open (observers
    nest and share one list); exiting ends the window, and closes the log
    if this window opened it.  :meth:`entries` lists the window's entries:
    those so far while it is open, all of them after.  An observer that
    folds as it goes (the tracer) calls :meth:`restart` once it has taken
    the entries it folds.
    """

    __slots__ = ("device", "log", "start", "stop", "_opened")

    def __init__(self, device: "SimulatedGPU") -> None:
        self.device = device

    def __enter__(self) -> "LogWindow":
        device = self.device
        self._opened = device.log is None
        if self._opened:
            device.log = []
        self.log = device.log
        self.start, self.stop = len(self.log), None
        device.observers += 1
        return self

    def __exit__(self, *exc) -> None:
        self.stop = len(self.log)
        self.device.observers -= 1
        if self._opened and self.device.log is self.log:
            self.device.log = None

    def entries(self, skip: int = 0) -> list[tuple]:
        """The window's entries after its first ``skip``."""
        return self.log[self.start + skip:self.stop]

    def restart(self) -> bool:
        """Continue on a fresh log, dropping the entries so far, if no
        other open window shares this one (nothing else can need them)."""
        if self.device.observers != 1 or self.device.log is not self.log:
            return False
        self.__exit__()
        self.__enter__()
        return True


class SimulatedGPU:
    """An analytical model of one GPU (default: NVIDIA V100)."""

    def __init__(
        self,
        sim: SimulationConfig | None = None,
        device_id: int = 0,
        name: Optional[str] = None,
    ) -> None:
        self.sim = sim or DEFAULT_SIMULATION
        self.device_id = device_id
        self.name = name or f"cuda:{device_id}"
        self.clock_s = 0.0
        #: host-side enqueue clock: CUDA launches are asynchronous, so the
        #: CPU runs ahead of the GPU; a kernel can start no earlier than its
        #: enqueue completes.  Launch overhead therefore only opens real GPU
        #: gaps when kernels are shorter than the enqueue rate — the effect
        #: that starves many-tiny-kernel workloads (Tree-LSTM) while large
        #: kernels absorb it entirely.
        self.host_clock_s = 0.0
        self.stats = DeviceStats()
        #: this config's launch-analysis memo, resolved once — the launch
        #: hot path must not pay a registry lookup per kernel
        self._analysis = analysis_cache.cache_for(self.sim)
        #: launch-site memo: full (descriptor, analysis record) pairs keyed
        #: by the emitting site's raw arguments (see ops.base.launch), letting
        #: repeat launches skip descriptor construction entirely
        self.site_records: dict[tuple, tuple] = {}
        #: simulated HBM occupancy (repro.gpu.memory); passive until a
        #: DeviceMemoryTracker drives it — never touched on the launch path
        self.memory = memory.MemoryPool(self.sim.device.dram_size_bytes)
        #: the open event log, ``None`` while nothing observes
        self.log: Optional[list[tuple]] = None
        #: open log windows
        self.observers = 0
        #: strict mode's validator (repro.testing.invariants): called with
        #: each launch and transfer entry as it happens
        self.checker: Optional[Callable[[tuple], None]] = None
        self._launch_counter = 0
        _DEVICES.add(self)

    # -- observation -----------------------------------------------------------
    def observe(self) -> LogWindow:
        """A window on the event log, for a ``with`` block."""
        return LogWindow(self)

    def _emit(self, entry: tuple) -> None:
        if self.log is not None:
            self.log.append(entry)
        if self.checker is not None:
            self.checker(entry)

    # -- execution ------------------------------------------------------------
    def launch(self, desc: KernelDescriptor) -> KernelLaunch:
        """Simulate one kernel launch and advance the device clock.

        The cache/timing/stall analysis is memoized per descriptor signature
        (:mod:`repro.gpu.analysis_cache`): repeated launches of an identical
        descriptor — every layer and epoch of GNN training re-emits them over
        the same adjacency — degrade to a dict lookup plus clock arithmetic.
        """
        record, hit = self._analyze(desc)
        launch_id, start = self._finish_launch(desc, record, hit)
        return KernelLaunch.of(desc, record, launch_id, self.device_id, start)

    def launch_fast(self, desc: KernelDescriptor) -> None:
        """:meth:`launch` for the tensor-ops hot path.

        Identical clock/stat effects, but analysis-cache hits go through
        :meth:`replay` and no :class:`KernelLaunch` envelope is built.
        """
        record, hit = self._analyze(desc)
        if hit:
            self.replay(desc, record)
        else:
            self._finish_launch(desc, record, False)

    def launch_analyzed(
        self, desc: KernelDescriptor
    ) -> "analysis_cache.AnalysisRecord":
        """:meth:`launch_fast` that hands back the analysis record.

        The miss path of the launch-site memo (``ops.base.launch``) uses this
        to capture the record it will replay on subsequent hits without a
        second cache probe.
        """
        record, hit = self._analyze(desc)
        self._finish_launch(desc, record, hit)
        return record

    def _analyze(
        self, desc: KernelDescriptor
    ) -> tuple["analysis_cache.AnalysisRecord", bool]:
        """``(record, was_cache_hit)``: memoized, or cold when the cache is off."""
        if analysis_cache.enabled():
            return self._analysis.analyze(desc, self.sim)
        return analysis_cache.compute(desc, self.sim), False

    def replay(self, desc: KernelDescriptor, record) -> None:
        """Re-issue a memoized launch: clock arithmetic plus counters only.

        Byte-identical to :meth:`launch` of the same descriptor — the record
        was produced from exactly this descriptor, and the clock/stat updates
        below mirror :meth:`_finish_launch` — but builds no envelope.
        """
        tim = record.timing
        self.host_clock_s += self.sim.device.kernel_launch_overhead_s
        clock = self.clock_s
        start = self.host_clock_s if self.host_clock_s > clock else clock
        self.clock_s = start + tim.duration_s
        launch_id = self._launch_counter
        self._launch_counter = launch_id + 1

        stats = self.stats
        stats.kernel_count += 1
        stats.kernel_time_s += tim.duration_s
        stats.launch_overhead_s += start - clock
        stats.fp32_flops += desc.fp32_flops
        stats.int32_iops += desc.int32_iops
        stats.analysis_hits += 1
        if self.log is not None or self.checker is not None:
            self._emit(("K", launch_id, start, desc, record))

    def _finish_launch(self, desc: KernelDescriptor, record,
                       hit: bool) -> tuple[int, float]:
        """Issue one analysed launch; returns its ``(launch_id, start_s)``."""
        tim = record.timing
        self.host_clock_s += self.sim.device.kernel_launch_overhead_s
        start = max(self.clock_s, self.host_clock_s)
        gap = start - self.clock_s
        launch_id = self._launch_counter
        self._launch_counter += 1
        self.clock_s = start + tim.duration_s

        self.stats.kernel_count += 1
        self.stats.kernel_time_s += tim.duration_s
        self.stats.launch_overhead_s += gap
        self.stats.fp32_flops += desc.fp32_flops
        self.stats.int32_iops += desc.int32_iops
        if hit:
            self.stats.analysis_hits += 1
        else:
            self.stats.analysis_misses += 1
        if self.log is not None or self.checker is not None:
            self._emit(("K", launch_id, start, desc, record))
        return launch_id, start

    def _transfer(
        self, array: np.ndarray, direction: str, label: str
    ) -> TransferRecord:
        # Unlabelled copies at least say which way they went — "h2d"/"d2h"
        # reads better than "" in traces and memory attributions.
        label = label or direction
        values = np.asarray(array)
        nbytes = int(values.nbytes)
        if np.issubdtype(values.dtype, np.floating):
            # same count as count_nonzero(values) (-0.0 is zero; NaN and inf
            # are not) at a fraction of its cost on float buffers
            num_zeros = int(values.size - np.count_nonzero(values != 0))
        elif values.dtype == np.bool_ or np.issubdtype(values.dtype, np.number):
            num_zeros = int(values.size - np.count_nonzero(values))
        else:
            num_zeros = 0
        wire_bytes = nbytes
        if self.sim.transfer_compression != "none" and direction == "h2d":
            from .compression import compress

            wire_bytes = compress(values, self.sim.transfer_compression).compressed_bytes
        record = self._copy(direction, nbytes, int(values.size), num_zeros,
                            label, wire_bytes)
        if direction == "h2d":
            # after the copy's log entry, so a recorded epoch holds the
            # buffer's pool allocation after its transfer, as replay runs it
            tracker = memory._TRACKER
            if tracker is not None and tracker.device is self:
                tracker.register(values, label=label)
        return record

    def _copy(self, direction: str, nbytes: int, num_values: int,
              num_zeros: int, label: str, wire_bytes: int) -> TransferRecord:
        """Advance both clocks past one copy, count it and log it."""
        duration = timing.h2d_time(wire_bytes, self.sim)
        # PyTorch-1.5-style pageable copies are synchronous: the host stalls
        # until the copy completes, re-aligning both clocks.
        start = max(self.clock_s, self.host_clock_s)
        record = TransferRecord(
            direction=direction,
            nbytes=nbytes,
            num_values=num_values,
            num_zeros=num_zeros,
            label=label,
            start_s=start,
            duration_s=duration,
            device_id=self.device_id,
            wire_bytes=wire_bytes,
        )
        self.clock_s = start + duration
        self.host_clock_s = self.clock_s
        self.stats.transfer_count += 1
        self.stats.transfer_time_s += duration
        if direction == "h2d":
            self.stats.h2d_bytes += nbytes
        else:
            self.stats.d2h_bytes += nbytes
        if self.log is not None or self.checker is not None:
            self._emit(("T", record))
        return record

    def h2d(self, array: np.ndarray, label: str = "") -> TransferRecord:
        """Copy a host buffer to the device, measuring value sparsity."""
        return self._transfer(array, "h2d", label)

    def d2h(self, array: np.ndarray, label: str = "") -> TransferRecord:
        """Copy a device buffer back to the host."""
        return self._transfer(array, "d2h", label)

    def transfer_bytes(
        self, nbytes: int, direction: str, label: str = "",
        num_values: int = 0,
    ) -> TransferRecord:
        """Account an *analytic* host<->device copy of ``nbytes``.

        Out-of-core staging (repro.train.sharded) moves partitions far too
        large to materialize as real arrays, so this path charges the PCIe
        cost model with a bare byte count: no payload to measure sparsity
        on, no compression (nothing to compress), and no tracker
        registration — capacity-mode callers drive the memory pool
        directly.  Clock advance, stats and the event log behave exactly
        like :meth:`h2d`/:meth:`d2h`.
        """
        if direction not in ("h2d", "d2h"):
            raise ValueError(f"unknown transfer direction {direction!r}")
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return self._copy(direction, nbytes, int(num_values), 0,
                          label or direction, nbytes)

    # -- clock ---------------------------------------------------------------
    def elapsed_s(self) -> float:
        return self.clock_s

    def reset(self) -> None:
        """Start a fresh measurement run: clocks, counters, and any event
        log, strict checker or launch-site memo left by earlier runs.

        Every profiler/tracer/recorder in the repo starts observing *after*
        reset, so closing the log here means an observer left open by a
        previous run can never skew a later one on a reused device.  The
        memory pool is deliberately untouched — its lifecycle belongs to
        :func:`repro.gpu.memory.track`, which may span a reset (allocations
        made during build survive into the measured run).
        """
        self.clock_s = 0.0
        self.host_clock_s = 0.0
        self._launch_counter = 0
        self.stats.reset()
        self.log = None
        self.checker = None
        self.site_records.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"SimulatedGPU({self.name}, kernels={self.stats.kernel_count}, "
            f"t={self.clock_s * 1e3:.3f} ms)"
        )
