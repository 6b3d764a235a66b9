"""Simulated HBM occupancy: a caching device allocator plus lifecycle tracking.

The analytical device models *time* (clocks, stalls, bandwidth); this module
models *space*.  Every :class:`~repro.gpu.device.SimulatedGPU` owns a
:class:`MemoryPool` — a caching allocator in the style of the PyTorch CUDA
allocator: allocation sizes round up to a size bucket (512 B quantum below
1 MiB, 64 KiB quantum above), freed blocks park on a per-bucket free list
instead of returning to the device, and a request is served from a cached
block of its bucket whenever one exists, so ``reserved`` bytes (the
cudaMalloc footprint) only grow when no cached block fits.  The pool tracks
live/reserved/peak bytes, per-phase and per-epoch watermarks, allocation
churn, fragmentation, and checks every reservation against the configured
HBM capacity (``DeviceConfig.dram_size_bytes`` — 16 GiB on the paper's
V100), flagging OOM as a warning by default or an :class:`OOMError` in
strict mode.

The pool is *driven* by a :class:`DeviceMemoryTracker`, which registers the
tensor lifecycle: device-tensor creation, autograd saved activations,
optimizer state, and raw ``h2d`` staging buffers.  Registration dedups by
the owning numpy buffer (views never allocate) and frees ride
``weakref.finalize`` on the buffer, so lifetimes follow CPython refcounting
deterministically.  Like the tracer, tracking is **zero-cost when off**: the
hooks in the tensor/autograd/optimizer layers are single module-global
``is None`` checks, and no per-launch path ever touches the pool.
"""

from __future__ import annotations

import contextlib
import gc
import warnings
import weakref
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..canonical import canonical_digest

MEMORY_VERSION = 1

#: allocation quantum below/above the small-pool limit (PyTorch-CUDA-style)
SMALL_BLOCK_QUANTUM = 512
SMALL_POOL_LIMIT = 1 << 20  # 1 MiB
LARGE_BLOCK_QUANTUM = 1 << 16  # 64 KiB


def round_block(nbytes: int) -> int:
    """Round a request up to its size bucket (the allocator's block size)."""
    if nbytes <= SMALL_BLOCK_QUANTUM:
        return SMALL_BLOCK_QUANTUM
    quantum = (SMALL_BLOCK_QUANTUM if nbytes < SMALL_POOL_LIMIT
               else LARGE_BLOCK_QUANTUM)
    return (int(nbytes) + quantum - 1) // quantum * quantum


class OOMError(MemoryError):
    """A reservation exceeded the simulated device's HBM capacity."""


@dataclass(frozen=True)
class OOMEvent:
    """One capacity violation (recorded whether or not strict mode raises)."""

    requested_bytes: int
    block_bytes: int
    live_bytes: int
    reserved_bytes: int
    capacity_bytes: int
    label: str
    phase: str
    clock_s: float


@dataclass(frozen=True)
class PoolDelta:
    """The whole effect of one fixed alloc/free sequence on a pool.

    Built once by :meth:`of` from the pool's own tap tuples.  When the
    pool :meth:`~MemoryPool.covers` it, every allocation in the sequence
    would reuse a cached block, so no reservation, OOM check or segment
    count can happen, and :meth:`MemoryPool.apply` leaves the pool exactly
    as replaying the sequence through ``alloc``/``free`` would, in
    O(buckets + phases + labels).
    """

    #: (block, most blocks the sequence holds from that bucket at once)
    need: tuple[tuple[int, int], ...]
    #: (block, net change of that bucket's cached free blocks), non-zero
    net_blocks: tuple[tuple[int, int], ...]
    live_bytes: int
    requested_bytes: int
    #: highest live-bytes increment right after an allocation (None: none)
    peak: Optional[int]
    #: (phase, highest increment right after an allocation in that phase)
    phase_peaks: tuple[tuple[str, int], ...]
    #: (label, allocations, requested bytes), in first-use order
    labels: tuple[tuple[str, int, int], ...]
    allocs: int
    frees: int

    @classmethod
    def of(cls, events) -> "PoolDelta":
        """Delta of ``("A", nbytes, label, phase)`` / ``("F", block,
        requested)`` events, in order."""
        held: dict[int, int] = {}
        need: dict[int, int] = {}
        phases: dict[str, int] = {}
        labels: dict[str, list[int]] = {}
        live = requested = allocs = frees = 0
        peak = None
        for event in events:
            if event[0] == "A":
                _, nbytes, label, phase = event
                block = round_block(nbytes)
                taken = held.get(block, 0) + 1
                held[block] = taken
                if taken > need.get(block, 0):
                    need[block] = taken
                live += block
                requested += nbytes
                allocs += 1
                if peak is None or live > peak:
                    peak = live
                if phase and (phase not in phases or live > phases[phase]):
                    phases[phase] = live
                if label:
                    entry = labels.setdefault(label, [0, 0])
                    entry[0] += 1
                    entry[1] += nbytes
            else:
                _, block, req = event
                held[block] = held.get(block, 0) - 1
                live -= block
                requested -= req
                frees += 1
        return cls(
            need=tuple(need.items()),
            net_blocks=tuple((b, -h) for b, h in held.items() if h),
            live_bytes=live, requested_bytes=requested, peak=peak,
            phase_peaks=tuple(phases.items()),
            labels=tuple((name, c, n) for name, (c, n) in labels.items()),
            allocs=allocs, frees=frees,
        )


class MemoryPool:
    """Caching HBM allocator for one simulated device.

    ``live_bytes`` is what tensors currently occupy, ``reserved_bytes`` is
    what the device has handed out (cached free blocks included) — the
    cudaMalloc footprint a real process would show in ``nvidia-smi``.  All
    quantities derive from tensor shapes, never from compute results, so
    pool state is bit-deterministic for a seeded run.
    """

    def __init__(self, capacity_bytes: int,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.capacity_bytes = int(capacity_bytes)
        #: reads the simulated clock for OOM-event timestamps
        self.clock = clock
        self.strict = False
        #: optional event tap (``repro.gpu.graph_capture``): every alloc/free
        #: is mirrored as an ``("A", nbytes, label, phase)`` / ``("F", block,
        #: requested)`` tuple so a captured epoch plan can re-drive the pool
        #: deterministically during replay, or apply their :class:`PoolDelta`
        #: when nothing watches it.  Survives :meth:`reset` — the tap
        #: owner installs and removes it around one capture window.  The pool
        #: is only ever driven while a DeviceMemoryTracker is installed, so
        #: the ``None`` check never sits on the kernel-launch hot path.
        self.tap: Optional[Callable[[tuple], None]] = None
        self.reset()

    def reset(self) -> None:
        self.live_bytes = 0
        self.reserved_bytes = 0
        self.peak_live_bytes = 0
        self.peak_reserved_bytes = 0
        #: sum of *requested* (pre-rounding) bytes of live blocks
        self.requested_live_bytes = 0
        self.alloc_count = 0
        self.free_count = 0
        #: new device reservations ("cudaMalloc"s) vs. cached-block reuses
        self.segment_allocs = 0
        self.bucket_reuse_count = 0
        #: rounded block size -> count of cached free blocks
        self._free_blocks: dict[int, int] = {}
        #: peak live bytes observed while each phase was current
        self.phase_watermarks: dict[str, int] = {}
        #: peak live bytes within each completed epoch
        self.epoch_watermarks: list[int] = []
        self._interval_peak = 0
        #: label -> (allocation count, cumulative requested bytes)
        self.label_stats: dict[str, list[int]] = {}
        self.oom_events: list[OOMEvent] = []
        self._warned = False

    # -- allocation ----------------------------------------------------------
    def cached_blocks(self, nbytes: int) -> int:
        """Cached free blocks in the bucket ``nbytes`` would allocate from."""
        return self._free_blocks.get(round_block(nbytes), 0)

    def alloc(self, nbytes: int, label: str = "", phase: str = "") -> int:
        """Allocate one block; returns the rounded block size to free later."""
        block = round_block(nbytes)
        cached = self._free_blocks.get(block, 0)
        if cached:
            if cached == 1:
                del self._free_blocks[block]
            else:
                self._free_blocks[block] = cached - 1
            self.bucket_reuse_count += 1
        else:
            self.reserved_bytes += block
            self.segment_allocs += 1
            if self.reserved_bytes > self.peak_reserved_bytes:
                self.peak_reserved_bytes = self.reserved_bytes
            if self.reserved_bytes > self.capacity_bytes:
                self._flag_oom(nbytes, block, label, phase)
        self.live_bytes += block
        self.requested_live_bytes += int(nbytes)
        self.alloc_count += 1
        if self.live_bytes > self.peak_live_bytes:
            self.peak_live_bytes = self.live_bytes
        if self.live_bytes > self._interval_peak:
            self._interval_peak = self.live_bytes
        if phase:
            if self.live_bytes > self.phase_watermarks.get(phase, 0):
                self.phase_watermarks[phase] = self.live_bytes
        if label:
            entry = self.label_stats.get(label)
            if entry is None:
                self.label_stats[label] = [1, int(nbytes)]
            else:
                entry[0] += 1
                entry[1] += int(nbytes)
        if self.tap is not None:
            self.tap(("A", int(nbytes), label, phase))
        return block

    def free(self, block: int, requested: int = 0) -> None:
        """Return a block to its bucket's free list (stays reserved)."""
        self.live_bytes -= block
        self.requested_live_bytes -= int(requested)
        self.free_count += 1
        self._free_blocks[block] = self._free_blocks.get(block, 0) + 1
        if self.tap is not None:
            self.tap(("F", block, int(requested)))

    def covers(self, delta: PoolDelta) -> bool:
        """Would every allocation of ``delta``'s sequence reuse a cached
        block?"""
        free = self._free_blocks
        for block, count in delta.need:
            if free.get(block, 0) < count:
                return False
        return True

    def apply(self, delta: PoolDelta) -> None:
        """End state of a sequence this pool :meth:`covers`, without its
        single events (no tap, OOM check or reservation)."""
        free = self._free_blocks
        for block, change in delta.net_blocks:
            count = free.get(block, 0) + change
            if count:
                free[block] = count
            else:
                del free[block]
        base = self.live_bytes
        self.live_bytes = base + delta.live_bytes
        self.requested_live_bytes += delta.requested_bytes
        self.alloc_count += delta.allocs
        self.free_count += delta.frees
        self.bucket_reuse_count += delta.allocs
        if delta.peak is not None:
            peak = base + delta.peak
            if peak > self.peak_live_bytes:
                self.peak_live_bytes = peak
            if peak > self._interval_peak:
                self._interval_peak = peak
        for phase, rise in delta.phase_peaks:
            peak = base + rise
            if peak > self.phase_watermarks.get(phase, 0):
                self.phase_watermarks[phase] = peak
        for label, count, nbytes in delta.labels:
            entry = self.label_stats.get(label)
            if entry is None:
                self.label_stats[label] = [count, nbytes]
            else:
                entry[0] += count
                entry[1] += nbytes

    def trim(self) -> int:
        """Release every cached free block back to the device
        (``torch.cuda.empty_cache``); returns the bytes released."""
        freed = sum(size * count for size, count in self._free_blocks.items())
        self._free_blocks.clear()
        self.reserved_bytes -= freed
        return freed

    def end_epoch(self) -> None:
        """Record the peak live bytes since the previous epoch boundary."""
        self.epoch_watermarks.append(self._interval_peak)
        self._interval_peak = self.live_bytes

    def _flag_oom(self, nbytes: int, block: int, label: str,
                  phase: str) -> None:
        event = OOMEvent(
            requested_bytes=int(nbytes), block_bytes=block,
            live_bytes=self.live_bytes, reserved_bytes=self.reserved_bytes,
            capacity_bytes=self.capacity_bytes, label=label, phase=phase,
            clock_s=self.clock() if self.clock is not None else 0.0,
        )
        self.oom_events.append(event)
        message = (
            f"simulated HBM exhausted: reserving {block} B for "
            f"{label or 'tensor'!r} ({phase or 'unphased'}) pushes the device "
            f"footprint to {self.reserved_bytes} B, over the "
            f"{self.capacity_bytes} B capacity"
        )
        if self.strict:
            raise OOMError(message)
        if not self._warned:
            self._warned = True
            warnings.warn(message, ResourceWarning, stacklevel=3)

    # -- derived stats -------------------------------------------------------
    def fragmentation(self) -> float:
        """Fraction of the reserved footprint that is cached free blocks."""
        if self.reserved_bytes <= 0:
            return 0.0
        return (self.reserved_bytes - self.live_bytes) / self.reserved_bytes

    def internal_fragmentation(self) -> float:
        """Fraction of live bytes lost to bucket rounding."""
        if self.live_bytes <= 0:
            return 0.0
        return (self.live_bytes - self.requested_live_bytes) / self.live_bytes

    def utilization(self) -> float:
        """Peak reserved footprint as a fraction of HBM capacity."""
        if self.capacity_bytes <= 0:
            return 0.0
        return self.peak_reserved_bytes / self.capacity_bytes

    def stats(self) -> dict:
        """Picklable snapshot of every aggregate the pool maintains."""
        return {
            "capacity_bytes": self.capacity_bytes,
            "live_bytes": self.live_bytes,
            "reserved_bytes": self.reserved_bytes,
            "peak_live_bytes": self.peak_live_bytes,
            "peak_reserved_bytes": self.peak_reserved_bytes,
            "alloc_count": self.alloc_count,
            "free_count": self.free_count,
            "segment_allocs": self.segment_allocs,
            "bucket_reuse_count": self.bucket_reuse_count,
            "fragmentation": round(self.fragmentation(), 9),
            "internal_fragmentation": round(self.internal_fragmentation(), 9),
            "utilization": round(self.utilization(), 9),
            "phase_watermarks": dict(sorted(self.phase_watermarks.items())),
            "epoch_watermarks": list(self.epoch_watermarks),
            "oom_events": len(self.oom_events),
        }


# -- the process-wide tracker (zero-cost when absent) --------------------------
_TRACKER: Optional["DeviceMemoryTracker"] = None

#: maps the tracker's phase attribution to the tensor layer's phase context;
#: installed by ``repro.tensor`` at import (the gpu layer must not import it)
_PHASE_PROVIDER: Callable[[], str] = lambda: ""

#: default allocation label per training phase, used when a tensor carries
#: no name of its own — keeps watermark attribution readable
_PHASE_LABELS = {"forward": "activation", "backward": "grad",
                 "optimizer": "optimizer_state", "setup": "setup"}


def active() -> Optional["DeviceMemoryTracker"]:
    """The installed tracker, or ``None`` — the single-check fast guard."""
    return _TRACKER


def set_phase_provider(provider: Callable[[], str]) -> None:
    global _PHASE_PROVIDER
    _PHASE_PROVIDER = provider


def notify_alloc(device, array, label: str = "") -> None:
    """Registration hook for layers that hold raw device buffers
    (optimizer state, staged batches).  No-op unless ``device`` is tracked."""
    tracker = _TRACKER
    if tracker is not None and device is tracker.device:
        tracker.register(array, label)


class DeviceMemoryTracker:
    """Front-end that maps buffer lifetimes onto one device's pool.

    Buffers register once (dedup by the id of the owning base array — views
    and aliases never double-count) and free automatically when the buffer
    dies, via ``weakref.finalize``.  A closed tracker turns every late
    finalizer into a no-op, so trackers from finished runs can never touch
    a later run's pool.
    """

    def __init__(self, device) -> None:
        self.device = device
        self.pool: MemoryPool = device.memory
        # OOM events carry the simulated clock while this tracker drives
        # the pool (cleared on close so the pool doesn't pin the device)
        self.pool.clock = device.elapsed_s
        #: id(root buffer) -> (rounded block size, requested bytes)
        self._live: dict[int, tuple[int, int]] = {}
        self._closed = False
        #: optional callable(clock_s, live, reserved) feeding trace counters
        self._counter_sink = None

    # -- registration -------------------------------------------------------
    def register(self, array, label: str = "",
                 phase: Optional[str] = None) -> None:
        if self._closed:
            return
        root = array
        while isinstance(root, np.ndarray) and root.base is not None:
            root = root.base
        if not isinstance(root, np.ndarray):
            return
        key = id(root)
        if key in self._live:
            return
        nbytes = int(root.nbytes)
        if nbytes <= 0:
            return
        if phase is None:
            phase = _PHASE_PROVIDER()
        if not label:
            label = _PHASE_LABELS.get(phase, "tensor")
        block = self.pool.alloc(nbytes, label=label, phase=phase)
        self._live[key] = (block, nbytes)
        weakref.finalize(root, self._on_free, key)
        self._sample()

    def register_tensor(self, tensor) -> None:
        """Tensor-creation hook (``Tensor.__init__`` on a tracked device)."""
        if tensor.device is self.device:
            self.register(tensor.data, label=tensor.name)

    def _on_free(self, key: int) -> None:
        if self._closed:
            return
        entry = self._live.pop(key, None)
        if entry is None:
            return
        self.pool.free(entry[0], entry[1])
        self._sample()

    # -- trace counter plumbing ---------------------------------------------
    def set_counter_sink(self, sink) -> None:
        """Feed live/reserved samples to a tracer (Chrome Counter events)."""
        self._counter_sink = sink
        self._sample()

    def _sample(self) -> None:
        sink = self._counter_sink
        if sink is not None:
            sink(self.device.clock_s, self.pool.live_bytes,
                 self.pool.reserved_bytes)

    # -- epoch boundaries ----------------------------------------------------
    def end_epoch(self) -> None:
        self.pool.end_epoch()
        self._sample()

    # -- reporting -----------------------------------------------------------
    def report(self, top_labels: int = 10,
               collect_garbage: bool = True) -> dict:
        """Canonical, picklable memory report for the tracked run.

        Collects cyclic garbage first so the end-state live bytes are a
        deterministic function of the run, not of collector timing.
        """
        if collect_garbage:
            gc.collect()
        report = dict(self.pool.stats())
        report["version"] = MEMORY_VERSION
        labels = sorted(
            self.pool.label_stats.items(),
            key=lambda item: (-item[1][1], item[0]),
        )[:top_labels]
        report["top_labels"] = [
            [name, stats[1], stats[0]] for name, stats in labels
        ]
        report["memory_digest"] = digest_report(report)
        return report

    def close(self) -> None:
        self._closed = True
        self._live.clear()
        self._counter_sink = None
        self.pool.clock = None


def digest_report(report: dict) -> str:
    """SHA-256 over the canonical JSON of a report (digest field excluded)."""
    return canonical_digest(
        {k: v for k, v in report.items() if k != "memory_digest"})


@contextlib.contextmanager
def track(device, strict: bool = False):
    """Install a :class:`DeviceMemoryTracker` on ``device`` for a block.

    Resets the device's pool on entry (the tracked run owns the footprint)
    and closes the tracker on exit, neutralizing any finalizers that fire
    after the block.
    """
    global _TRACKER
    if _TRACKER is not None:
        raise RuntimeError("a memory tracker is already installed")
    device.memory.reset()
    device.memory.strict = strict
    tracker = DeviceMemoryTracker(device)
    _TRACKER = tracker
    try:
        yield tracker
    finally:
        _TRACKER = None
        device.memory.strict = False
        tracker.close()
