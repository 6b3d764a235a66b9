"""The launch table's reductions against the per-launch folds they replace.

Every per-launch export is a reduction over one launch table per log window
(``repro.profiling.table``).  The folds it replaced are kept here verbatim
as references: ``KernelProfiler``'s duration-weighted ``w_*`` fold,
``DivergenceInstrument``'s fold, insights' ``LaunchRow`` rows with
``_fold_row``/``_merge_acc``/``build_tree``, the loader's
``_StallAccumulator``, and the span-based tracer and ``Timeline.summary``.
Each table reduction must give the same bytes: floats compare with ``==``
(through ``repr``, so ``-0.0`` and dict key order count too).

Inputs: Hypothesis logs cut into windows (more than 50 launches of one
name, names first seen in a later window, empty and transfer-only windows,
zero-duration kernels, phase runs straddling windows), and the real logs of
the nine workloads, folded per epoch, whole, and in chunks.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import registry
from repro.gpu import FIGURE_CATEGORIES, OpClass, SimulatedGPU
from repro.gpu.config import DEFAULT_SIMULATION, SimulationConfig
from repro.profiling import LaunchTable, insights, nvbit, nvprof, trace
from repro.profiling.insights import (
    _COMPONENT_CLASS,
    _STREAM_PHASE,
    _node,
    _r,
    _roofline,
)
from repro.profiling.trace import (
    CAT_EPOCH,
    CAT_KERNEL,
    CAT_PHASE,
    CAT_TRANSFER,
    DEVICE_CATS,
    Span,
    _tid_rank,
)
from repro.tensor import manual_seed
from repro.train import loader
from repro.train.trainer import Trainer
from tests.launch_logs import event_logs, windows

METRIC_SAMPLE_LIMIT = 50


# -- the parent's folds, verbatim ---------------------------------------------
# nvprof: KernelStats' duration-weighted w_* sums
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

# nvbit: three dicts per figure category
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

# insights: one LaunchRow per launch, folded into leaf and flat accumulators
@dataclass(frozen=True)
class LaunchRow:
    """One kernel launch, reduced to what the classifier folds."""

    start_s: float
    duration_s: float
    name: str
    op: str
    phase: str
    fp32_flops: int
    int32_iops: int
    dram_bytes: int
    l2_bytes: int
    components: dict
    stalls: dict


def launch_rows(entries) -> list[LaunchRow]:
    """``SiteCollector.on_launch``'s rows of device 0's launches."""
    rows = []
    for entry in entries:
        if entry[0] != "K":
            continue
        start, desc, record = entry[2], entry[3], entry[4]
        mem = record.memory
        rows.append(LaunchRow(
            start_s=start,
            duration_s=record.timing.duration_s,
            name=desc.name,
            op=desc.op_class.value,
            phase=desc.phase,
            fp32_flops=desc.fp32_flops,
            int32_iops=desc.int32_iops,
            dram_bytes=mem.dram_bytes,
            l2_bytes=mem.l2_bytes,
            components=record.timing.components,
            stalls=record.stalls.as_dict(),
        ))
    return rows


def _new_kernel_acc(row: LaunchRow) -> dict:
    return {
        "launches": 0, "duration_us": 0.0, "op": row.op,
        "fp32_flops": 0, "int32_iops": 0, "dram_bytes": 0, "l2_bytes": 0,
        "_components": dict.fromkeys(row.components, 0.0),
        "_stall_us": dict.fromkeys(row.stalls, 0.0),
    }


def _fold_row(acc: dict, row: LaunchRow) -> None:
    dur_us = row.duration_s * 1e6
    acc["launches"] += 1
    acc["duration_us"] += dur_us
    acc["fp32_flops"] += row.fp32_flops
    acc["int32_iops"] += row.int32_iops
    acc["dram_bytes"] += row.dram_bytes
    acc["l2_bytes"] += row.l2_bytes
    for comp, cycles in row.components.items():
        acc["_components"][comp] += cycles
    for reason, share in row.stalls.items():
        acc["_stall_us"][reason] += share * dur_us


def _merge_acc(dst: dict, src: dict) -> None:
    for field in ("launches", "duration_us", "fp32_flops", "int32_iops",
                  "dram_bytes", "l2_bytes", "events", "bytes"):
        if field in src:
            dst[field] = dst.get(field, 0) + src[field]
    for table in ("_components", "_stall_us"):
        if table in src:
            out = dst.setdefault(table, dict.fromkeys(src[table], 0.0))
            for k, v in src[table].items():
                out[k] = out.get(k, 0.0) + v
    dst.setdefault("op", src.get("op"))


def _finalize_site(name: str, stream: str, acc: dict,
                   sim: SimulationConfig) -> dict:
    node = {"name": name, "kind": "site", "stream": stream,
            "duration_us": acc["duration_us"]}
    if "launches" in acc:
        comp = acc["_components"]
        stall_us = acc["_stall_us"]
        bound = max(comp, key=comp.get)
        top_stall = max(stall_us, key=stall_us.get) if stall_us else "other"
        total_stall = sum(stall_us.values())
        node.update({
            "launches": acc["launches"],
            "op": acc["op"],
            "bound": bound,
            "bound_class": _COMPONENT_CLASS[bound],
            "fp32_flops": acc["fp32_flops"],
            "int32_iops": acc["int32_iops"],
            "dram_bytes": acc["dram_bytes"],
            "l2_bytes": acc["l2_bytes"],
            "top_stall": top_stall,
            "top_stall_share": _r(stall_us.get(top_stall, 0.0) / total_stall
                                  if total_stall else 0.0),
        })
        node.update(_roofline(acc["fp32_flops"], acc["int32_iops"],
                              acc["dram_bytes"], acc["duration_us"], sim))
    else:
        node.update({
            "events": acc["events"],
            "bytes": acc["bytes"],
            "bound_class": "transfer_or_stall",
        })
    return node


def _node(name: str, kind: str, children: list[dict],
          sort: bool = True) -> dict:
    if sort:
        children = sorted(children,
                          key=lambda c: (-c["duration_us"], c["name"]))
    return {
        "name": name,
        "kind": kind,
        "duration_us": sum(c["duration_us"] for c in children),
        "children": children,
    }


def build_tree(timeline, rows: Sequence[LaunchRow],
               sim: Optional[SimulationConfig] = None,
               pid: int = 0) -> tuple[dict, list[dict]]:
    """Fold a timeline + launch rows into ``(tree, flat_sites)``.

    The tree nests ``run → epoch → phase → stream → site`` with every
    parent's ``duration_us`` the exact sum of its children's (the Hypothesis
    property in ``tests/test_insights_properties.py``).  ``flat_sites``
    aggregates the same accumulators across epochs — keyed ``(phase, stream,
    site)`` and classified by the identical code path — which is the
    comparable unit :func:`diff_insights` works on.  Epoch membership is by
    start timestamp against the epoch spans of ``pid``; events before the
    first epoch clamp into it.
    """
    sim = sim or DEFAULT_SIMULATION
    epoch_spans = sorted(timeline.query(pid=pid, tid="epoch"),
                         key=lambda s: s.ts_us)
    starts = [s.ts_us for s in epoch_spans]
    labels = [s.name for s in epoch_spans] or ["epoch 0"]

    def epoch_of(ts_us: float) -> str:
        if not starts:
            return labels[0]
        idx = bisect.bisect_right(starts, ts_us) - 1
        return labels[max(0, min(idx, len(labels) - 1))]

    leaves: dict[tuple, dict] = {}
    for row in rows:
        key = (epoch_of(row.start_s * 1e6), row.phase, "kernels", row.name)
        acc = leaves.get(key)
        if acc is None:
            acc = leaves[key] = _new_kernel_acc(row)
        _fold_row(acc, row)
    for span in timeline.spans:
        if span.pid != pid or span.tid not in _STREAM_PHASE:
            continue
        key = (epoch_of(span.ts_us), _STREAM_PHASE[span.tid], span.tid,
               span.name)
        acc = leaves.setdefault(key, {"events": 0, "duration_us": 0.0,
                                      "bytes": 0})
        acc["events"] += 1
        acc["duration_us"] += span.dur_us
        nbytes = span.arg("nbytes", span.arg("bytes", 0))
        acc["bytes"] += int(nbytes or 0)

    # cross-epoch aggregation shares the leaf accumulators, so flat sites are
    # classified by the same argmax the tree leaves are
    flat_accs: dict[tuple, dict] = {}
    for (epoch, phase, stream, site), acc in sorted(leaves.items()):
        flat = flat_accs.setdefault((phase, stream, site), {})
        _merge_acc(flat, acc)

    grouped: dict[str, dict[str, dict[str, dict]]] = {}
    for (epoch, phase, stream, site), acc in sorted(leaves.items()):
        grouped.setdefault(epoch, {}).setdefault(phase, {}).setdefault(
            stream, {})[site] = _finalize_site(site, stream, acc, sim)

    epoch_nodes = []
    for epoch in list(dict.fromkeys(labels)) + sorted(
            set(grouped) - set(labels)):
        streams_by_phase = grouped.pop(epoch, None)
        if not streams_by_phase:
            continue
        phase_nodes = []
        for phase, streams in streams_by_phase.items():
            stream_nodes = [_node(stream, "stream", list(sites.values()))
                            for stream, sites in streams.items()]
            phase_nodes.append(_node(phase, "phase", stream_nodes))
        epoch_nodes.append(_node(epoch, "epoch", phase_nodes))
    tree = _node("run", "run", epoch_nodes, sort=False)

    flat_sites = []
    for (phase, stream, site), acc in flat_accs.items():
        entry = _finalize_site(site, stream, acc, sim)
        entry.pop("kind", None)
        entry.pop("name", None)
        entry.update({"phase": phase, "stream": stream, "site": site})
        flat_sites.append(entry)
    flat_sites.sort(key=lambda e: (-e["duration_us"], e["phase"],
                                   e["stream"], e["site"]))
    return tree, flat_sites


# the loader's stall accumulator
class _StallAccumulator:
    """Duration-weighted per-kernel stall shares of event-log entries.

    `attribute()` stays a pure memoized per-descriptor function; this
    aggregates its normalized shares across the run so the report can fold
    in ``loader_stall`` at the wall-clock level without touching the frozen
    seven-field :class:`~repro.gpu.kernel.StallBreakdown`.
    """

    def __init__(self) -> None:
        self.weighted: dict[str, float] = {}
        self.busy_s = 0.0

    def on_launch(self, entries) -> None:
        """Fold the kernel launches among ``entries``."""
        for entry in entries:
            if entry[0] != "K":
                continue
            record = entry[4]
            d = record.timing.duration_s
            self.busy_s += d
            for name, share in record.stalls.as_dict().items():
                self.weighted[name] = self.weighted.get(name, 0.0) + share * d

    def breakdown(self, loader_stall_s: float, wall_s: float) -> dict:
        """The seven nvprof categories renormalized over the non-loader
        share of the wall clock, plus ``loader_stall`` itself."""
        loader_share = (min(1.0, loader_stall_s / wall_s)
                        if wall_s > 0 else 0.0)
        out = {}
        for name in sorted(self.weighted):
            kernel_share = (self.weighted[name] / self.busy_s
                            if self.busy_s > 0 else 0.0)
            out[name] = kernel_share * (1.0 - loader_share)
        out["loader_stall"] = loader_share
        return out


# the tracer's per-kernel spans and derived phase runs
class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._phase_runs: dict[int, list] = {}

    def on_entries(self, pid: int, entries: list[tuple]) -> None:
        """Spans of a window's new ``entries``: kernels, transfers and the
        phase runs they extend."""
        self.on_launch(pid, entries)
        self.on_transfer(pid, entries)
        for entry in entries:
            if entry[0] == "K":
                start, duration = entry[2], entry[4].timing.duration_s
                self._extend_phase(pid, entry[3].phase, start,
                                   start + duration)
            elif entry[0] == "T":
                record = entry[1]
                self._extend_phase(pid, "transfer", record.start_s,
                                   record.start_s + record.duration_s)

    def on_launch(self, pid: int, entries: list[tuple]) -> None:
        """Kernel spans of the launches among ``entries``."""
        spans = self.spans
        for entry in entries:
            if entry[0] != "K":
                continue
            start, desc = entry[2], entry[3]
            spans.append(Span.make(
                desc.name, CAT_KERNEL, pid, "kernels",
                start, start + entry[4].timing.duration_s,
                {"op": desc.op_class.value, "phase": desc.phase},
            ))

    def on_transfer(self, pid: int, entries: list[tuple]) -> None:
        """Transfer spans of the copies among ``entries``."""
        for entry in entries:
            if entry[0] != "T":
                continue
            record = entry[1]
            args = {
                "label": record.label,
                "nbytes": record.nbytes,
                "wire_bytes": record.wire_bytes,
                "num_values": record.num_values,
            }
            if record.direction == "h2d":
                # D2H payloads are compute results; their zero counts must
                # not enter the (byte-deterministic) trace — same rule as
                # goldens.
                args["sparsity"] = round(record.sparsity, 9)
            self.spans.append(Span.make(
                record.label or record.direction, CAT_TRANSFER, pid,
                record.direction, record.start_s,
                record.start_s + record.duration_s, args,
            ))

    # -- derived phase spans ----------------------------------------------
    def _extend_phase(self, pid: int, name: str, start_s: float,
                      end_s: float) -> None:
        run = self._phase_runs.get(pid)
        if run is not None and run[0] == name:
            run[2] = end_s
            return
        if run is not None:
            self._close_phase(pid, run)
        self._phase_runs[pid] = [name, start_s, end_s]

    def _close_phase(self, pid: int, run: list) -> None:
        self.spans.append(Span.make(run[0], CAT_PHASE, pid, "phase",
                                    run[1], run[2]))

    def flush_phases(self, pid: Optional[int] = None) -> None:
        """Close open phase runs (epoch boundaries must not be straddled)."""
        if pid is None:
            pids = list(self._phase_runs)
        else:
            pids = [pid] if pid in self._phase_runs else []
        for p in pids:
            self._close_phase(p, self._phase_runs.pop(p))


# the span-based timeline summary
class Timeline:
    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans: list[Span] = sorted(
            spans, key=lambda s: (s.pid, _tid_rank(s.tid), s.ts_us)
        )

    def __len__(self) -> int:
        return len(self.spans)

    def __eq__(self, other) -> bool:
        return isinstance(other, Timeline) and self.spans == other.spans

    # -- queries -----------------------------------------------------------
    def query(self, pid: Optional[int] = None, tid: Optional[str] = None,
              cat: Optional[str] = None,
              name: Optional[str] = None) -> list[Span]:
        return [
            s for s in self.spans
            if (pid is None or s.pid == pid)
            and (tid is None or s.tid == tid)
            and (cat is None or s.cat == cat)
            and (name is None or s.name == name)
        ]

    def device_ids(self) -> list[int]:
        return sorted({s.pid for s in self.spans})

    def wall_us(self) -> float:
        return max((s.end_us for s in self.spans), default=0.0)

    def wall_s(self) -> float:
        return self.wall_us() / 1e6

    def _intervals(self, pid: Optional[int],
                   cats: Sequence[str]) -> list[tuple[float, float]]:
        ivals = [(s.ts_us, s.end_us) for s in self.spans
                 if s.cat in cats and (pid is None or s.pid == pid)]
        return _merge_intervals(ivals)

    def busy_us(self, pid: int) -> float:
        """Microseconds the device is occupied (union of device-cat spans)."""
        return sum(b - a for a, b in self._intervals(pid, DEVICE_CATS))

    def idle_fraction(self, pid: int) -> float:
        """Fraction of the trace wall-clock this device spends idle."""
        wall = self.wall_us()
        if wall <= 0:
            return 0.0
        return 1.0 - self.busy_us(pid) / wall

    def overlap_us(self, cat_a: str, cat_b: str,
                   pid: Optional[int] = None) -> float:
        """Total time where a ``cat_a`` span and a ``cat_b`` span coexist."""
        return _intersect_total(self._intervals(pid, (cat_a,)),
                                self._intervals(pid, (cat_b,)))

    def compute_transfer_overlap(self, pid: Optional[int] = None) -> float:
        """Fraction of transfer time hidden under kernel execution.

        Pageable PyTorch-1.5-style copies are synchronous, so this is ~0 on
        faithful configurations — the observability exists precisely so a
        future pinned/async transfer model has a measurable target.
        """
        transfer = sum(b - a for a, b in self._intervals(pid, (CAT_TRANSFER,)))
        if transfer <= 0:
            return 0.0
        return self.overlap_us(CAT_KERNEL, CAT_TRANSFER, pid) / transfer

    def phase_occupancy(self, pid: Optional[int] = None) -> dict[str, float]:
        """Per-phase share of the trace wall-clock (derived phase spans).

        With ``pid=None`` the share is averaged over devices, so a
        symmetric multi-GPU trace reports the same occupancy as any one
        of its replicas.
        """
        wall = self.wall_us()
        if wall <= 0:
            return {}
        if pid is None:
            wall *= max(1, len(self.device_ids()))
        acc: dict[str, float] = {}
        for s in self.spans:
            if s.cat == CAT_PHASE and (pid is None or s.pid == pid):
                acc[s.name] = acc.get(s.name, 0.0) + s.dur_us
        return {name: acc[name] / wall for name in sorted(acc)}

    def critical_path(self) -> list[Span]:
        """Device-occupying spans of the last-finishing device, in order.

        Every per-device stream is serialized (in-order launch semantics) and
        collectives are barriers, so the chain of kernel/transfer/allreduce
        spans on the device that finishes last covers the end-to-end
        wall-clock minus that device's idle gaps.
        """
        best_pid, best_end = None, -1.0
        for pid in self.device_ids():
            end = max((s.end_us for s in self.spans
                       if s.pid == pid and s.cat in DEVICE_CATS), default=0.0)
            if end > best_end:
                best_pid, best_end = pid, end
        if best_pid is None:
            return []
        return [s for s in self.spans
                if s.pid == best_pid and s.cat in DEVICE_CATS]

    def critical_path_s(self) -> float:
        return sum(s.dur_us for s in self.critical_path()) / 1e6

    def span_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for s in self.spans:
            counts[s.cat] = counts.get(s.cat, 0) + 1
        return {cat: counts[cat] for cat in sorted(counts)}

    def summary(self) -> dict:
        """The profiling report's timeline block (small, picklable)."""
        wall = self.wall_s()
        devices = {
            str(pid): {
                "busy_s": self.busy_us(pid) / 1e6,
                "idle_fraction": self.idle_fraction(pid),
            }
            for pid in self.device_ids()
        }
        idle = [d["idle_fraction"] for d in devices.values()]
        return {
            "wall_s": wall,
            "span_count": len(self.spans),
            "span_counts": self.span_counts(),
            "devices": devices,
            "idle_fraction": max(idle) if idle else 0.0,
            "compute_transfer_overlap": self.compute_transfer_overlap(),
            "phase_occupancy": self.phase_occupancy(),
        }


def _merge_intervals(
    intervals: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    if not intervals:
        return []
    intervals.sort()
    merged = [intervals[0]]
    for start, end in intervals[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            if end > last_end:
                merged[-1] = (last_start, end)
        else:
            merged.append((start, end))
    return merged


def _intersect_total(a: list[tuple[float, float]],
                     b: list[tuple[float, float]]) -> float:
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


# -- what each export shows -----------------------------------------------------
_METRICS = ("ipc", "occupancy", "l1_hit", "l2_hit", "divergent")
_PER_OP = _METRICS + tuple(f"stall_{reason}" for reason in (
    "memory_dependency", "execution_dependency", "instruction_fetch",
    "synchronization", "pipe_busy", "not_selected", "other", "unknown"))


def kernel_view(p) -> str:
    return repr({
        "total_time_s": p.total_time_s,
        "total_launches": p.total_launches,
        "phase_time": dict(p.phase_time),
        "kernels": [(s.name, s.op_class, s.launches, s.total_time_s,
                     s.sampled_launches, s.sampled_time_s, s.flops, s.iops,
                     s.instructions, s.fp32_instrs, s.int32_instrs,
                     s.dram_bytes, [s.metric(m) for m in _METRICS],
                     s.stall_shares()) for s in p.kernels.values()],
        "op_time_breakdown": p.op_time_breakdown(),
        "instruction_mix": p.instruction_mix(),
        "throughput": p.throughput(),
        "stall_breakdown": p.stall_breakdown(),
        "cache_stats": p.cache_stats(),
        "per_op_class": {m: p.per_op_class(m) for m in _PER_OP},
        "phase_breakdown": p.phase_breakdown(),
        "top_kernels": [(s.name, s.launches, s.sampled_launches,
                         s.total_time_s) for s in p.top_kernels(10)],
    })


def divergence_view(d) -> str:
    return repr((d.by_category(), d.lines_per_warp(),
                 d.divergent_load_fraction(), d.total_loads,
                 d.total_divergent))


def stall_view(s) -> str:
    return repr((s.busy_s, s.breakdown(0.0, 0.0), s.breakdown(0.0, 1e-2),
                 s.breakdown(3e-4, 1e-2), s.breakdown(1.0, 0.5)))


def timeline_view(tl) -> str:
    return repr((tl.summary(), len(tl), tl.wall_us(), tl.span_counts(),
                 [tl.busy_us(pid) for pid in tl.device_ids()],
                 tl.phase_occupancy(0), tl.compute_transfer_overlap(0)))


# -- the comparisons ----------------------------------------------------------
def _fold_both(chunks: Sequence[list], pid: int = 0):
    """The change and the reference over the same windows: each window is
    tabulated once, by the tracer, and that table feeds every reduction."""
    new_tracer, ref_tracer = trace.Tracer(), Tracer()
    new = (nvprof.KernelProfiler(), nvbit.DivergenceInstrument(),
           loader._StallAccumulator())
    ref = (KernelProfiler(), DivergenceInstrument(), _StallAccumulator())
    for i, chunk in enumerate(chunks):
        table = new_tracer.on_entries(pid, chunk)
        for reduction in new:
            reduction.on_launch(table)
        for fold in ref:
            fold.on_launch(chunk)
        ref_tracer.on_entries(pid, chunk)
        # the epoch boundary: phase runs close, an epoch span opens
        times = [e[2] for e in chunk if e[0] == "K"]
        for t in (new_tracer, ref_tracer):
            t.flush_phases(pid)
            if times:
                t.spans.append(Span.make(f"epoch {i}", CAT_EPOCH, pid,
                                         "epoch", times[0], times[-1]))
    return new, ref, new_tracer.timeline(), Timeline(ref_tracer.spans)


def assert_reductions_match(chunks: Sequence[list]) -> None:
    new, ref, timeline, ref_timeline = _fold_both(chunks)
    assert kernel_view(new[0]) == kernel_view(ref[0])
    assert divergence_view(new[1]) == divergence_view(ref[1])
    assert stall_view(new[2]) == stall_view(ref[2])
    assert timeline.spans == ref_timeline.spans
    assert timeline.to_chrome() == trace.Timeline(ref_timeline.spans) \
        .to_chrome()
    assert timeline_view(timeline) == timeline_view(ref_timeline)
    rows = launch_rows([e for chunk in chunks for e in chunk])
    assert repr(insights.build_tree(timeline)) == \
        repr(build_tree(timeline, rows))


def assert_chunking_invariant(entries: list, chunks: Sequence[list]) -> None:
    """One table of the whole log reduces to what its chunks' tables do."""
    whole, parts = nvprof.KernelProfiler(), nvprof.KernelProfiler()
    whole.on_launch(LaunchTable.of(entries))
    for chunk in chunks:
        parts.on_launch(LaunchTable.of(chunk))
    assert kernel_view(whole) == kernel_view(parts)
    whole, parts = nvbit.DivergenceInstrument(), nvbit.DivergenceInstrument()
    whole.on_launch(LaunchTable.of(entries))
    for chunk in chunks:
        parts.on_launch(LaunchTable.of(chunk))
    assert divergence_view(whole) == divergence_view(parts)
    concat = LaunchTable.concat(LaunchTable.of(c) for c in chunks)
    table = LaunchTable.of(entries)
    for column in ("launch_id", "start_s", "duration_s", "flops", "stalls",
                   "components", "divergent"):
        assert getattr(concat, column).tobytes() == \
            getattr(table, column).tobytes(), column
    for code, values in (("name", "names"), ("op", "ops"),
                         ("phase", "phases")):
        assert getattr(concat, values) == getattr(table, values)
        assert getattr(concat, code).tolist() == getattr(table, code).tolist()


class TestSyntheticLogs:
    @settings(max_examples=80, deadline=None)
    @given(chunks=windows())
    def test_reductions_match_the_per_launch_folds(self, chunks):
        assert_reductions_match(chunks)

    @settings(max_examples=40, deadline=None)
    @given(chunks=windows())
    def test_chunks_reduce_as_the_whole_log(self, chunks):
        assert_chunking_invariant([e for c in chunks for e in c], chunks)

    @settings(max_examples=20, deadline=None)
    @given(entries=event_logs(max_events=40), data=st.data())
    def test_sampling_cap_continues_across_windows(self, entries, data):
        """Past 50 launches of one name, a later window's launches are
        timed but not sampled, however the log is cut."""
        entries = [e for e in entries if e[0] == "K"]
        assume(entries)
        # 160 launches of at most three names: one passes the cap
        entries *= -(-160 // len(entries))
        cut = data.draw(st.integers(0, len(entries)))
        assert_reductions_match([entries[:cut], entries[cut:]])
        assert_chunking_invariant(entries, [entries[:cut], entries[cut:]])

    def test_empty_and_transfer_only_windows(self):
        profiler = nvprof.KernelProfiler()
        profiler.on_launch(LaunchTable.of([]))
        assert profiler.kernels == {} and profiler.total_time_s == 0.0
        assert_reductions_match([[], []])


@pytest.fixture(scope="module", params=list(registry.WORKLOAD_KEYS))
def real_log(request):
    """A 2-epoch test-scale run's log windows, one per epoch fold."""
    windows_ = []
    manual_seed(0)
    device = SimulatedGPU()
    workload = registry.get(request.param).build(device=device, scale="test")
    device.reset()
    with trace.session(devices=(device,),
                       fold=lambda entries, table: windows_.append(entries)):
        Trainer(workload=workload, device=device).run(epochs=2, seed=0)
    return windows_


class TestRealLogs:
    def test_per_epoch_windows_match_the_folds(self, real_log):
        assert sum(1 for w in real_log if w) >= 2
        assert_reductions_match(real_log)

    def test_whole_log_and_chunks_match_the_folds(self, real_log):
        entries = [e for window in real_log for e in window]
        rng = np.random.default_rng(len(entries))
        cuts = sorted(rng.integers(0, len(entries), size=4).tolist())
        chunks = [entries[a:b] for a, b in
                  zip([0, *cuts], [*cuts, len(entries)])]
        assert_reductions_match([entries])
        assert_reductions_match(chunks)
        assert_chunking_invariant(entries, chunks)


class TestTableShape:
    def test_table_holds_columns_not_objects(self, real_log):
        table = LaunchTable.of(real_log[0])
        for value in vars(table).values():
            if isinstance(value, np.ndarray):
                assert value.dtype != object
        assert all(isinstance(n, str) for n in table.names + table.phases)
        assert all(isinstance(op, OpClass) for op in table.ops)

    def test_names_interned_in_first_seen_order(self):
        entries = [e for e in _two_names() if e[0] == "K"]
        table = LaunchTable.of(entries)
        seen = list(dict.fromkeys(e[3].name for e in entries))
        assert table.names == seen
        assert [table.names[c] for c in table.name.tolist()] == \
            [e[3].name for e in entries]


def _two_names() -> list:
    gpu = SimulatedGPU()
    from repro.gpu import KernelDescriptor

    with gpu.observe() as window:
        for name in ("b", "a", "b", "c", "a"):
            gpu.launch(KernelDescriptor(name=name, op_class=OpClass.GEMM,
                                        threads=64))
    return window.entries()
