"""Content-addressed memoization of the launch-analysis pipeline.

Every simulated kernel launch runs ``caches.analyze`` → ``timing.analyze`` →
``stalls.attribute``.  All three are *pure functions* of the kernel
descriptor and the simulation config — they read thread geometry,
instruction/byte counts, the access-pattern index sample, and calibration
constants, never the clock, the launch history, or any other device state.
GNN training re-emits identical descriptors over the same adjacency indices
every layer and every epoch, so the steady-state launch path collapses to a
dict lookup: the :class:`AnalysisCache` keys the
``(MemoryMetrics, TimingResult, StallBreakdown)`` triple by a descriptor
*signature* — every analysis-relevant descriptor field plus the access
pattern's content fingerprint (for irregular streams, a hash of the sampled
index bytes).

The descriptor's ``name`` and ``phase`` are deliberately **absent** from the
signature: the analysis pipeline never reads them, so e.g. a forward gather
and the structurally identical backward gather share one record.  Because
the memoized functions are pure, caching cannot change any emitted metric —
the golden kernel-stream digests are byte-identical with the cache on or
off, which ``tests/test_analysis_cache.py`` asserts for every workload.

Caches are held per :class:`SimulationConfig` *object* (config dataclasses
are frozen, so an object's calibration can never drift under its cache) and
evicted when the config is garbage collected.  Divergence measurements are
memoized here too (:data:`DIVERGENCE`), keyed by the same content
fingerprint.  Set ``REPRO_ANALYSIS_CACHE=0`` to bypass every memoization
layer — this module, the per-device launch-site memo and KGNN's set-graph
memo — and run the original cold pipeline on every launch.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass
from typing import Callable, Optional

from . import caches, stalls, timing
from .config import SimulationConfig
from .kernel import KernelDescriptor, MemoryMetrics, StallBreakdown

_FALSEY = ("0", "false", "off", "no")
#: the ``REPRO_ANALYSIS_CACHE`` escape hatch, read once at import: the flag
#: is a process-level switch, and :func:`enabled` sits on the per-launch
#: hot path where an environment lookup is measurable.
_ENV_DEFAULT = os.environ.get("REPRO_ANALYSIS_CACHE", "1").lower() not in _FALSEY


@dataclass(frozen=True)
class AnalysisRecord:
    """The immutable analysis triple shared by identical launches."""

    memory: MemoryMetrics
    timing: "object"  # TimingResult; typed loosely to avoid an import cycle
    stalls: StallBreakdown


def compute(desc: KernelDescriptor, sim: SimulationConfig) -> AnalysisRecord:
    """Run the full (cold) analysis pipeline for one descriptor."""
    mem = caches.analyze(desc, sim)
    tim = timing.analyze(desc, mem, sim)
    stall = stalls.attribute(desc, mem, tim, sim)
    return AnalysisRecord(memory=mem, timing=tim, stalls=stall)


def signature(desc: KernelDescriptor, sim: SimulationConfig) -> tuple:
    """Hashable identity of a descriptor under the analysis pipeline.

    Exactly the fields ``caches``/``timing``/``stalls`` read; ``name`` and
    ``phase`` are excluded because no model consumes them.
    """
    return (
        desc.op_class,
        desc.threads,
        desc.block_size,
        desc.fp32_flops,
        desc.int32_iops,
        desc.ldst_instrs,
        desc.control_instrs,
        desc.bytes_read,
        desc.bytes_written,
        desc.working_set_bytes,
        desc.reuse_factor,
        desc.compute_scale,
        desc.access.fingerprint(sim.divergence_sample),
    )


class AnalysisCache:
    """Signature → :class:`AnalysisRecord` map with hit/miss counters."""

    __slots__ = ("records", "hits", "misses")

    def __init__(self) -> None:
        self.records: dict[tuple, AnalysisRecord] = {}
        self.hits = 0
        self.misses = 0

    def analyze(self, desc: KernelDescriptor,
                sim: SimulationConfig) -> tuple[AnalysisRecord, bool]:
        sig = signature(desc, sim)
        record = self.records.get(sig)
        if record is not None:
            self.hits += 1
            return record, True
        record = compute(desc, sim)
        self.records[sig] = record
        self.misses += 1
        return record, False

    def __len__(self) -> int:
        return len(self.records)


#: live caches keyed by ``id(sim)``; a finalizer evicts the slot when the
#: config dies, so configs created per-experiment don't leak records.
_CACHES: dict[int, AnalysisCache] = {}
#: irregular-stream divergence results (``divergence.measure``) keyed by
#: ``(pattern fingerprint, line_bytes, warp_size, sample)``: patterns over
#: equal index content share one measurement
DIVERGENCE: dict[tuple, object] = {}
#: extra invalidation hooks run by :func:`clear` (the device layer registers
#: its per-device launch-site memos here without a reverse import).
_CLEAR_HOOKS: list[Callable[[], None]] = []
#: hooks fired when the *effective* enabled() flag flips (the device layer
#: resets its per-device hit/miss telemetry there: counters sampled under
#: one discipline must not bleed into runs under the other).
_TOGGLE_HOOKS: list[Callable[[bool], None]] = []
#: test/bench override: ``True``/``False`` force the flag, ``None`` defers
#: to the ``REPRO_ANALYSIS_CACHE`` environment variable (default on).
_FORCED: Optional[bool] = None


def enabled() -> bool:
    """Is launch-analysis memoization active for this process?"""
    if _FORCED is not None:
        return _FORCED
    return _ENV_DEFAULT


def set_enabled(value: Optional[bool]) -> None:
    """Force the cache on/off (``None`` restores the environment default).

    When the *effective* setting actually flips — forcing the current value
    again is a no-op — every :func:`register_toggle_hook` callback fires
    with the new setting.  ``override`` blocks go through here on both
    enter and exit, so mid-process toggling always resets per-device
    hit/miss counters.
    """
    global _FORCED
    before = enabled()
    _FORCED = value
    after = enabled()
    if after != before:
        for hook in _TOGGLE_HOOKS:
            hook(after)


def register_toggle_hook(hook: Callable[[bool], None]) -> None:
    """Register a callback for effective enabled() flips."""
    if hook not in _TOGGLE_HOOKS:
        _TOGGLE_HOOKS.append(hook)


class override:
    """Context manager forcing the cache on or off within a block."""

    def __init__(self, value: Optional[bool]) -> None:
        self.value = value
        self._saved: Optional[bool] = None

    def __enter__(self) -> "override":
        self._saved = _FORCED
        set_enabled(self.value)
        return self

    def __exit__(self, *exc) -> None:
        set_enabled(self._saved)


def cache_for(sim: SimulationConfig) -> AnalysisCache:
    """The (possibly fresh) cache attached to this simulation config."""
    key = id(sim)
    cache = _CACHES.get(key)
    if cache is None:
        cache = AnalysisCache()
        _CACHES[key] = cache
        try:
            weakref.finalize(sim, _CACHES.pop, key, None)
        except TypeError:  # pragma: no cover - un-weakref-able config
            pass
    return cache


def analyze(desc: KernelDescriptor,
            sim: SimulationConfig) -> tuple[AnalysisRecord, bool]:
    """Memoized analysis of one launch: ``(record, was_cache_hit)``."""
    if not enabled():
        return compute(desc, sim), False
    return cache_for(sim).analyze(desc, sim)


def register_clear_hook(hook: Callable[[], None]) -> None:
    """Register an extra invalidation callback for :func:`clear`."""
    if hook not in _CLEAR_HOOKS:
        _CLEAR_HOOKS.append(hook)


def clear() -> None:
    """Drop every memoized record (benchmark/test hygiene)."""
    for cache in _CACHES.values():
        cache.records.clear()
        cache.hits = 0
        cache.misses = 0
    DIVERGENCE.clear()
    for hook in _CLEAR_HOOKS:
        hook()


def stats() -> dict[str, int]:
    """Aggregate hit/miss/size counters across all live caches."""
    return {
        "hits": sum(c.hits for c in _CACHES.values()),
        "misses": sum(c.misses for c in _CACHES.values()),
        "records": sum(len(c) for c in _CACHES.values()),
    }
