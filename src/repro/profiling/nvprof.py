"""Kernel-level metric collection, modeled on nvprof.

The paper's methodology: hardware counters are collected per kernel for at
most *fifty invocations of each kernel or one epoch, whichever is shorter*;
timeline quantities (durations, launch counts) cover every launch.  The
:class:`KernelProfiler` reproduces both collection modes as one fold over a
window of the device's event log (:meth:`repro.gpu.SimulatedGPU.observe`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

from ..gpu import FIGURE_CATEGORIES, OpClass

METRIC_SAMPLE_LIMIT = 50


@dataclass
class KernelStats:
    """Aggregated per-kernel-name statistics."""

    name: str
    op_class: OpClass
    launches: int = 0
    total_time_s: float = 0.0
    # metric-sampled accumulators (first METRIC_SAMPLE_LIMIT launches),
    # weighted by kernel duration
    sampled_launches: int = 0
    sampled_time_s: float = 0.0
    w_ipc: float = 0.0
    w_occupancy: float = 0.0
    w_l1_hit: float = 0.0
    w_l2_hit: float = 0.0
    w_divergent: float = 0.0
    w_stalls: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    flops: float = 0.0
    iops: float = 0.0
    instructions: float = 0.0
    fp32_instrs: float = 0.0
    int32_instrs: float = 0.0
    dram_bytes: float = 0.0

    def metric(self, name: str) -> float:
        if self.sampled_time_s <= 0:
            return 0.0
        if name == "ipc":
            return self.w_ipc / self.sampled_time_s
        if name == "occupancy":
            return self.w_occupancy / self.sampled_time_s
        if name == "l1_hit":
            return self.w_l1_hit / self.sampled_time_s
        if name == "l2_hit":
            return self.w_l2_hit / self.sampled_time_s
        if name == "divergent":
            return self.w_divergent / self.sampled_time_s
        raise KeyError(name)

    def stall_shares(self) -> dict[str, float]:
        if self.sampled_time_s <= 0:
            return {}
        return {k: v / self.sampled_time_s for k, v in self.w_stalls.items()}

    @property
    def gflops(self) -> float:
        return self.flops / self.total_time_s / 1e9 if self.total_time_s else 0.0

    @property
    def giops(self) -> float:
        return self.iops / self.total_time_s / 1e9 if self.total_time_s else 0.0


class KernelProfiler:
    """Aggregates every kernel launch of an event-log window."""

    def __init__(self, sample_limit: int = METRIC_SAMPLE_LIMIT) -> None:
        self.sample_limit = sample_limit
        self.kernels: dict[str, KernelStats] = {}
        self.phase_time: dict[str, float] = defaultdict(float)
        self.total_time_s = 0.0
        self.total_launches = 0

    def on_launch(self, entries: Iterable[tuple]) -> None:
        """Fold the kernel launches among ``entries`` (event-log entries)."""
        for entry in entries:
            if entry[0] != "K":
                continue
            desc, record = entry[3], entry[4]
            tim, mem = record.timing, record.memory
            duration = tim.duration_s
            stats = self.kernels.get(desc.name)
            if stats is None:
                stats = KernelStats(name=desc.name, op_class=desc.op_class)
                self.kernels[desc.name] = stats

            stats.launches += 1
            stats.total_time_s += duration
            stats.flops += desc.fp32_flops
            stats.iops += desc.int32_iops
            stats.instructions += tim.instructions
            stats.fp32_instrs += tim.fp32_instrs
            stats.int32_instrs += tim.int32_instrs
            stats.dram_bytes += mem.dram_bytes
            self.total_time_s += duration
            self.total_launches += 1
            self.phase_time[desc.phase] += duration

            if stats.sampled_launches < self.sample_limit:
                stats.sampled_launches += 1
                stats.sampled_time_s += duration
                stats.w_ipc += tim.ipc * duration
                stats.w_occupancy += tim.occupancy * duration
                stats.w_l1_hit += mem.l1_hit_rate * duration
                stats.w_l2_hit += mem.l2_hit_rate * duration
                stats.w_divergent += mem.divergent_load_fraction * duration
                for key, value in record.stalls.as_dict().items():
                    stats.w_stalls[key] += value * duration

    # -- aggregation (the figures' inputs) ---------------------------------------
    def op_time_breakdown(self) -> dict[str, float]:
        """Figure 2: fraction of kernel time per operation category."""
        times: dict[str, float] = defaultdict(float)
        for stats in self.kernels.values():
            times[stats.op_class.figure_category()] += stats.total_time_s
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
            s.w_ipc / s.sampled_time_s * s.total_time_s
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
        acc: dict[str, float] = defaultdict(float)
        total = 0.0
        for stats in self.kernels.values():
            if stats.sampled_time_s <= 0:
                continue
            shares = stats.stall_shares()
            for key, share in shares.items():
                acc[key] += share * stats.total_time_s
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
        acc: dict[str, float] = defaultdict(float)
        weight: dict[str, float] = defaultdict(float)
        for stats in self.kernels.values():
            if stats.sampled_time_s <= 0:
                continue
            cat = stats.op_class.figure_category()
            if metric.startswith("stall_"):
                value = stats.stall_shares().get(metric[len("stall_"):], 0.0)
            else:
                value = stats.metric(metric)
            acc[cat] += value * stats.total_time_s
            weight[cat] += stats.total_time_s
        return {cat: acc[cat] / weight[cat] for cat in acc if weight[cat] > 0}

    def phase_breakdown(self) -> dict[str, float]:
        total = sum(self.phase_time.values())
        if total <= 0:
            return dict(self.phase_time)
        return {k: v / total for k, v in self.phase_time.items()}

    def top_kernels(self, n: int = 10) -> list[KernelStats]:
        return sorted(self.kernels.values(), key=lambda s: -s.total_time_s)[:n]
