"""Warp-level memory-divergence measurement.

This is the simulator's analogue of the paper's NVBit instrumentation: for
irregular operations the tensor framework attaches the *actual* index array
that drives the gather/scatter, and we measure how many distinct 128-byte
cache lines each warp of 32 consecutive threads touches.  A warp load is
*divergent* when it touches more than one line (the paper's definition).

For regular (coalesced / strided) patterns the result is closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import AccessKind, AccessPattern


@dataclass(frozen=True)
class DivergenceResult:
    """Outcome of inspecting one kernel's dominant access stream.

    Frozen: results for irregular streams are memoized by index content and
    shared across launches (SpMM/gather/scatter over the same CSR graph
    re-measure nothing after the first launch).
    """

    #: fraction of warp-level load instructions touching > 1 line.
    divergent_fraction: float
    #: mean distinct 128-byte lines touched per warp load.
    lines_per_warp: float
    #: unique-line footprint of the sampled stream (bytes), scaled back to
    #: the full stream; used by the cache model as a locality signal.
    unique_line_fraction: float


def measure(
    pattern: AccessPattern,
    line_bytes: int = 128,
    warp_size: int = 32,
    sample: int = 4096,
) -> DivergenceResult:
    """Measure divergence for a kernel's dominant access pattern."""
    if pattern.kind is AccessKind.COALESCED:
        elems_per_line = max(1, line_bytes // max(1, pattern.element_bytes))
        lines = max(1.0, warp_size / elems_per_line)
        if lines <= 1.0:
            # A warp's 128 bytes touch one line only when the base address is
            # line-aligned; tensor rows rarely are, so a quarter of warp
            # loads straddle two lines (the paper's divergence definition
            # counts these).
            return DivergenceResult(
                divergent_fraction=0.25, lines_per_warp=1.25,
                unique_line_fraction=1.0,
            )
        return DivergenceResult(
            divergent_fraction=min(1.0, (lines - 1.0) / lines),
            lines_per_warp=lines,
            unique_line_fraction=1.0,
        )
    if pattern.kind is AccessKind.STRIDED:
        stride = max(pattern.stride_bytes, pattern.element_bytes)
        span = stride * warp_size
        lines = min(float(warp_size), max(1.0, span / line_bytes))
        divergent = 0.0 if lines <= 1.0 else 1.0
        return DivergenceResult(divergent, lines, 1.0)
    from . import analysis_cache

    if not analysis_cache.enabled():
        return _measure_irregular(pattern, line_bytes, warp_size, sample)
    # numpy measurement over the sampled stream is the single hottest piece
    # of the analysis pipeline; memoize it by the sample's content so
    # launches over equal indices (same CSR graph, every layer and epoch,
    # forward gather and backward scatter alike) measure exactly once.
    key = (pattern.fingerprint(sample), line_bytes, warp_size, sample)
    result = analysis_cache.DIVERGENCE.get(key)
    if result is None:
        result = _measure_irregular(pattern, line_bytes, warp_size, sample)
        analysis_cache.DIVERGENCE[key] = result
    return result


def _measure_irregular(
    pattern: AccessPattern, line_bytes: int, warp_size: int, sample: int,
) -> DivergenceResult:
    from ..graph.graph import sorted_unique  # graph imports this package

    indices = pattern.indices
    if indices is None or indices.size == 0:
        # No index stream supplied; assume the pathological case.
        return DivergenceResult(1.0, float(warp_size), 1.0)
    # Deterministic stratified sample: keep whole warps so the per-warp
    # statistics stay meaningful.
    flat = pattern.sampled_indices(sample)
    byte_addr = flat.astype(np.int64, copy=False) * int(pattern.element_bytes)
    lines = byte_addr // line_bytes

    n_full = (lines.size // warp_size) * warp_size
    if n_full == 0:
        unique = float(sorted_unique(lines).size)
        return DivergenceResult(
            divergent_fraction=1.0 if unique > 1 else 0.0,
            lines_per_warp=max(1.0, unique),
            unique_line_fraction=unique / max(1, lines.size),
        )
    warps = lines[:n_full].reshape(-1, warp_size)
    sorted_warps = np.sort(warps, axis=1)
    distinct = 1 + np.count_nonzero(np.diff(sorted_warps, axis=1), axis=1)
    divergent_fraction = float(np.mean(distinct > 1))
    lines_per_warp = float(np.mean(distinct))
    unique_line_fraction = float(sorted_unique(lines).size) / float(lines.size)
    return DivergenceResult(divergent_fraction, lines_per_warp, unique_line_fraction)
