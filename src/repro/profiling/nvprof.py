"""Kernel-level metric collection, modeled on nvprof.

The paper's methodology: hardware counters are collected per kernel for at
most *fifty invocations of each kernel or one epoch, whichever is shorter*;
timeline quantities (durations, launch counts) cover every launch.  The
:class:`KernelProfiler` reproduces both collection modes as one reduction
over each log window's :class:`~repro.profiling.table.LaunchTable`: every
launch adds to its kernel's totals, and a per-name rank mask, continued
across windows, picks the launches whose counters are sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gpu import FIGURE_CATEGORIES, OpClass
from .table import STALL_REASONS, LaunchTable, first_rows, running_total

METRIC_SAMPLE_LIMIT = 50

#: the counters a sampled launch adds weighted by its duration, whose
#: duration-weighted means :meth:`KernelStats.metric` reads
SAMPLED_METRICS = ("ipc", "occupancy", "l1_hit", "l2_hit", "divergent")
#: every launch's additions to its kernel: duration, then these sums
_TOTALS = ("flops", "iops", "instructions", "fp32_instrs", "int32_instrs",
           "dram_bytes")


@dataclass(frozen=True)
class KernelStats:
    """One kernel name's reduction over the launches folded so far."""

    name: str
    op_class: OpClass
    launches: int = 0
    total_time_s: float = 0.0
    #: the first METRIC_SAMPLE_LIMIT launches, whose counters are sampled
    sampled_launches: int = 0
    sampled_time_s: float = 0.0
    flops: float = 0.0
    iops: float = 0.0
    instructions: float = 0.0
    fp32_instrs: float = 0.0
    int32_instrs: float = 0.0
    dram_bytes: float = 0.0
    #: duration-weighted means over the sampled launches, of each of
    #: SAMPLED_METRICS and of each stall reason's share (empty when the
    #: sampled launches took no time)
    metrics: dict = field(default_factory=dict)
    stalls: dict = field(default_factory=dict)

    def metric(self, name: str) -> float:
        if self.sampled_time_s <= 0:
            return 0.0
        return self.metrics[name]

    def stall_shares(self) -> dict[str, float]:
        return dict(self.stalls)


def _grow(array: np.ndarray, rows: int) -> np.ndarray:
    extra = np.zeros((rows - array.shape[0],) + array.shape[1:], array.dtype)
    return np.concatenate((array, extra))


class KernelProfiler:
    """Aggregates every kernel launch of the launch tables it folds."""

    def __init__(self, sample_limit: int = METRIC_SAMPLE_LIMIT) -> None:
        self.sample_limit = sample_limit
        self.kernels: dict[str, KernelStats] = {}
        self.phase_time: dict[str, float] = {}
        self.total_time_s = 0.0
        self.total_launches = 0
        #: per kernel name, in first-seen order: its row, op class (of its
        #: first launch), launch and sampled-launch counts, and sums
        self._row: dict[str, int] = {}
        self._ops: list[OpClass] = []
        self._launches = np.zeros(0, dtype=np.int64)
        self._sampled = np.zeros(0, dtype=np.int64)
        self._totals = np.zeros((0, 1 + len(_TOTALS)))
        #: sampled duration, then duration-weighted SAMPLED_METRICS and
        #: stall shares
        self._weighted = np.zeros(
            (0, 1 + len(SAMPLED_METRICS) + len(STALL_REASONS)))

    def on_launch(self, table: LaunchTable) -> None:
        """Fold a launch table: every launch into its kernel's totals, and
        each kernel's first ``sample_limit`` launches (counted over every
        table folded so far) into its sampled counters, in launch order."""
        if not len(table):
            return
        rows = self._rows(table)
        duration = table.duration_s
        # each launch's rank among its kernel's launches in the table
        order = np.argsort(rows, kind="stable")
        rank = np.empty(len(table), dtype=np.int64)
        rank[order] = np.arange(len(table)) - np.searchsorted(rows[order],
                                                              rows[order])
        sampled = self._launches[rows] + rank < self.sample_limit

        np.add.at(self._launches, rows, 1)
        np.add.at(self._totals, rows, np.column_stack(
            [duration] + [getattr(table, c) for c in _TOTALS]))
        np.add.at(self._sampled, rows[sampled], 1)
        weighted = np.column_stack(
            [duration] + [getattr(table, m) * duration
                          for m in SAMPLED_METRICS]
            + [table.stalls * duration[:, None]])
        np.add.at(self._weighted, rows[sampled], weighted[sampled])
        self.total_time_s = running_total(self.total_time_s, duration)
        self.total_launches += len(table)
        phase_time = np.array([self.phase_time.get(p, 0.0)
                               for p in table.phases])
        np.add.at(phase_time, table.phase, duration)
        self.phase_time.update(zip(table.phases, phase_time.tolist()))
        self._publish()

    def _rows(self, table: LaunchTable) -> np.ndarray:
        """Each launch's kernel row, adding rows for names seen first."""
        first = first_rows(table.name, len(table.names))
        local = np.empty(len(table.names), dtype=np.int64)
        for code, name in enumerate(table.names):
            row = self._row.get(name)
            if row is None:
                row = self._row[name] = len(self._ops)
                self._ops.append(table.ops[table.op[first[code]]])
            local[code] = row
        count = len(self._ops)
        if count > self._launches.size:
            self._launches = _grow(self._launches, count)
            self._sampled = _grow(self._sampled, count)
            self._totals = _grow(self._totals, count)
            self._weighted = _grow(self._weighted, count)
        return local[table.name]

    def _publish(self) -> None:
        """Rebuild :attr:`kernels` from the per-name sums."""
        sampled_time = self._weighted[:, :1]
        means = np.divide(self._weighted[:, 1:], sampled_time,
                          out=np.zeros_like(self._weighted[:, 1:]),
                          where=sampled_time > 0).tolist()
        split = len(SAMPLED_METRICS)
        self.kernels = {}
        for name, row in self._row.items():
            totals = self._totals[row].tolist()
            timed = means[row] if self._weighted[row, 0] > 0 else []
            self.kernels[name] = KernelStats(
                name, self._ops[row], int(self._launches[row]), totals[0],
                int(self._sampled[row]), float(self._weighted[row, 0]),
                *totals[1:],
                metrics=dict(zip(SAMPLED_METRICS, timed[:split])),
                stalls=dict(zip(STALL_REASONS, timed[split:])))

    # -- aggregation (the figures' inputs) ---------------------------------------
    def op_time_breakdown(self) -> dict[str, float]:
        """Figure 2: fraction of kernel time per operation category."""
        times: dict[str, float] = {}
        for stats in self.kernels.values():
            cat = stats.op_class.figure_category()
            times[cat] = times.get(cat, 0.0) + stats.total_time_s
        total = sum(times.values())
        if total <= 0:
            return {cat: 0.0 for cat in FIGURE_CATEGORIES}
        return {cat: times.get(cat, 0.0) / total for cat in FIGURE_CATEGORIES}

    def instruction_mix(self) -> dict[str, float]:
        """Figure 3: share of executed instructions by type."""
        fp32 = sum(s.fp32_instrs for s in self.kernels.values())
        int32 = sum(s.int32_instrs for s in self.kernels.values())
        total = sum(s.instructions for s in self.kernels.values())
        other = max(total - fp32 - int32, 0.0)
        if total <= 0:
            return {"fp32": 0.0, "int32": 0.0, "other": 0.0}
        return {"fp32": fp32 / total, "int32": int32 / total,
                "other": other / total}

    def throughput(self) -> dict[str, float]:
        """Figure 4: achieved GFLOPS / GIOPS and time-weighted IPC."""
        flops = sum(s.flops for s in self.kernels.values())
        iops = sum(s.iops for s in self.kernels.values())
        ipc_weighted = sum(
            s.metric("ipc") * s.total_time_s
            for s in self.kernels.values()
            if s.sampled_time_s > 0
        )
        t = self.total_time_s
        return {
            "gflops": flops / t / 1e9 if t else 0.0,
            "giops": iops / t / 1e9 if t else 0.0,
            "ipc": ipc_weighted / t if t else 0.0,
        }

    def stall_breakdown(self) -> dict[str, float]:
        """Figure 5: time-weighted issue-stall attribution."""
        acc: dict[str, float] = {}
        total = 0.0
        for stats in self.kernels.values():
            if stats.sampled_time_s <= 0:
                continue
            for key, share in stats.stalls.items():
                acc[key] = acc.get(key, 0.0) + share * stats.total_time_s
            total += stats.total_time_s
        return {k: v / total for k, v in acc.items()} if total else dict(acc)

    def cache_stats(self) -> dict[str, float]:
        """Figure 6: time-weighted L1/L2 hit rates and divergence."""
        l1 = l2 = div = total = 0.0
        for stats in self.kernels.values():
            if stats.sampled_time_s <= 0:
                continue
            weight = stats.total_time_s
            l1 += stats.metric("l1_hit") * weight
            l2 += stats.metric("l2_hit") * weight
            div += stats.metric("divergent") * weight
            total += weight
        if total <= 0:
            return {"l1_hit": 0.0, "l2_hit": 0.0, "divergent_loads": 0.0}
        return {"l1_hit": l1 / total, "l2_hit": l2 / total,
                "divergent_loads": div / total}

    def per_op_class(self, metric: str) -> dict[str, float]:
        """Per-op-category metric averages (paper's per-op cache/stall view)."""
        acc: dict[str, float] = {}
        weight: dict[str, float] = {}
        for stats in self.kernels.values():
            if stats.sampled_time_s <= 0:
                continue
            cat = stats.op_class.figure_category()
            if metric.startswith("stall_"):
                value = stats.stalls.get(metric[len("stall_"):], 0.0)
            else:
                value = stats.metric(metric)
            acc[cat] = acc.get(cat, 0.0) + value * stats.total_time_s
            weight[cat] = weight.get(cat, 0.0) + stats.total_time_s
        return {cat: acc[cat] / weight[cat] for cat in acc if weight[cat] > 0}

    def phase_breakdown(self) -> dict[str, float]:
        total = sum(self.phase_time.values())
        if total <= 0:
            return dict(self.phase_time)
        return {k: v / total for k, v in self.phase_time.items()}

    def top_kernels(self, n: int = 10) -> list[KernelStats]:
        return sorted(self.kernels.values(), key=lambda s: -s.total_time_s)[:n]
