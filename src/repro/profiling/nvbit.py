"""Memory-divergence instrumentation, modeled on NVBit.

nvprof cannot report warp-level memory divergence, so the paper uses NVBit
binary instrumentation to count, per load, how many 128-byte lines a warp
touches.  In the simulator, irregular kernels carry their real index
streams and the device computes per-launch divergence; this pass reduces
each log window's :class:`~repro.profiling.table.LaunchTable` to
load-weighted divergence per operation category.
"""

from __future__ import annotations

import numpy as np

from .table import LaunchTable, running_total


class DivergenceInstrument:
    """Aggregates divergent-load statistics weighted by warp-load count."""

    def __init__(self) -> None:
        #: figure categories in first-seen order, and per category its warp
        #: loads, divergent warp loads and lines touched
        self.categories: list[str] = []
        self._sums = np.zeros((0, 3))
        self.total_loads = 0.0
        self.total_divergent = 0.0

    def on_launch(self, table: LaunchTable) -> None:
        """Fold a launch table: each launch's warp loads (``ldst / 32``)
        and their divergent fraction and lines per warp, summed per figure
        category in launch order."""
        if not len(table):
            return
        rows = np.empty(len(table.ops), dtype=np.int64)
        for code, op in enumerate(table.ops):
            category = op.figure_category()
            if category not in self.categories:
                self.categories.append(category)
            rows[code] = self.categories.index(category)
        if len(self.categories) > len(self._sums):
            self._sums = np.concatenate((self._sums, np.zeros(
                (len(self.categories) - len(self._sums), 3))))
        loads = table.ldst_instrs / 32.0
        divergent = loads * table.divergent
        np.add.at(self._sums, rows[table.op], np.column_stack(
            (loads, divergent, loads * table.lines_per_warp)))
        self.total_loads = running_total(self.total_loads, loads)
        self.total_divergent = running_total(self.total_divergent, divergent)

    def divergent_load_fraction(self) -> float:
        """Suite metric: fraction of warp loads touching > 1 line."""
        if self.total_loads <= 0:
            return 0.0
        return self.total_divergent / self.total_loads

    def by_category(self) -> dict[str, float]:
        return {cat: divergent / loads for cat, (loads, divergent, _)
                in zip(self.categories, self._sums.tolist()) if loads > 0}

    def lines_per_warp(self) -> dict[str, float]:
        return {cat: lines / loads for cat, (loads, _, lines)
                in zip(self.categories, self._sums.tolist()) if loads > 0}
