"""Memory-divergence instrumentation, modeled on NVBit.

nvprof cannot report warp-level memory divergence, so the paper uses NVBit
binary instrumentation to count, per load, how many 128-byte lines a warp
touches.  In the simulator, irregular kernels carry their real index
streams and the device computes per-launch divergence; this pass folds a
window of the device's event log into load-weighted divergence per
operation category.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable


@dataclass
class DivergenceRecord:
    kernel: str
    op_category: str
    warp_loads: float
    divergent_fraction: float
    lines_per_warp: float


class DivergenceInstrument:
    """Aggregates divergent-load statistics weighted by warp-load count."""

    def __init__(self) -> None:
        self._loads: dict[str, float] = defaultdict(float)
        self._divergent: dict[str, float] = defaultdict(float)
        self._lines: dict[str, float] = defaultdict(float)
        self.total_loads = 0.0
        self.total_divergent = 0.0

    def on_launch(self, entries: Iterable[tuple]) -> None:
        """Fold the kernel launches among ``entries`` (event-log entries)."""
        for entry in entries:
            if entry[0] != "K":
                continue
            desc, mem = entry[3], entry[4].memory
            warp_loads = desc.ldst_instrs / 32.0
            category = desc.op_class.figure_category()
            self._loads[category] += warp_loads
            self._divergent[category] += warp_loads * mem.divergent_load_fraction
            self._lines[category] += warp_loads * mem.lines_per_warp
            self.total_loads += warp_loads
            self.total_divergent += warp_loads * mem.divergent_load_fraction

    def divergent_load_fraction(self) -> float:
        """Suite metric: fraction of warp loads touching > 1 line."""
        if self.total_loads <= 0:
            return 0.0
        return self.total_divergent / self.total_loads

    def by_category(self) -> dict[str, float]:
        return {
            cat: self._divergent[cat] / self._loads[cat]
            for cat in self._loads
            if self._loads[cat] > 0
        }

    def lines_per_warp(self) -> dict[str, float]:
        return {
            cat: self._lines[cat] / self._loads[cat]
            for cat in self._loads
            if self._loads[cat] > 0
        }
