"""Insight engine: roofline attribution, run provenance, differential diagnosis.

The profiling layer *emits* everything the paper's analysis needs — per-launch
``MemoryMetrics``/``TimingResult``/``StallBreakdown``, the PR-4 timeline, the
PR-5 metrics registry — but nothing *interprets* it.  This module folds those
raw streams into verdicts:

* a **roofline classifier** tags every launch site with exactly one bound
  class — ``compute`` (issue/fp32/int32/serial-limited), ``dram_bandwidth``
  (lsu/l2/dram-limited), ``latency`` (dependency-chain-limited) — with
  arithmetic-intensity and %-of-roof numbers against the V100 peaks; spans on
  the non-kernel streams (h2d/d2h/allreduce/halo/loader/serve/queue) are
  ``transfer_or_stall`` by definition;
* a deterministic **attribution tree** ``run → epoch → phase → stream →
  site`` whose node durations are exact sums of their children (streams
  overlap on real hardware, so ``attributed_us`` can exceed wall time — it is
  stream-busy time, not elapsed time);
* a frozen :class:`RunManifest` (workload, scale, seed, gpus/parts, a digest
  of the :class:`SimulationConfig`, the repro source-tree hash, and the
  analysis-cache/capture flags) embedded in every insights report and — via
  ``Timeline.write(manifest=...)`` — in trace and metrics exports, so any two
  artifacts are provenance-comparable;
* a **differential diagnoser** :func:`diff_insights` that attributes the
  delta between two reports (insights reports, or the hotpath/sample/shard
  bench payloads and their committed baselines) to the top-N shifted
  sites/phases/streams — the three CI bench gates route their failure
  messages through :func:`render_diff_lines` so a red gate names *what*
  regressed, not just the aggregate ratio.

Determinism rules (the golden family ``tests/golden/insights_*.json`` pins
these):

* every number folds pure functions of ``(descriptor, SimulationConfig)``
  over the simulated clock — never wall time, never live cache state;
* the collector reads each launch's analysis record from the device's event
  log, and a record is a pure function of its descriptor, so reports are
  byte-identical with the global analysis cache on or off;
* ``insights_digest`` is SHA-256 over the canonical JSON of the report with
  ``insights_digest`` itself and ``manifest.source_digest`` removed — the
  digest covers the measurements, while the source hash identifies the code
  that produced them (and legitimately changes every commit).
"""

from __future__ import annotations

import bisect
import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

from ..canonical import canonical_digest
from ..gpu.config import DEFAULT_SIMULATION, SimulationConfig
from . import trace
from .trace import Tracer

INSIGHTS_VERSION = 1

#: the four verdicts; every classified site carries exactly one
BOUND_CLASSES = ("compute", "dram_bandwidth", "latency", "transfer_or_stall")

#: cycle-limiter (``TimingResult.components`` key) → bound class
_COMPONENT_CLASS = {
    "issue": "compute",
    "fp32": "compute",
    "int32": "compute",
    "serial": "compute",
    "lsu": "dram_bandwidth",
    "l2_bw": "dram_bandwidth",
    "dram_bw": "dram_bandwidth",
    "latency": "latency",
}

#: non-kernel timeline streams folded into the tree, and the phase each is
#: attributed to (kernel launches carry their own descriptor phase)
_STREAM_PHASE = {
    "h2d": "transfer",
    "d2h": "transfer",
    "allreduce": "allreduce",
    "halo": "halo",
    "loader": "loader",
    "serve": "serve",
    "queue": "serve",
}


def _r(value: float) -> float:
    """Round a derived ratio for readability (inputs are already exact)."""
    return round(float(value), 9)


# -- run provenance ----------------------------------------------------------
def sim_digest(sim: Optional[SimulationConfig] = None) -> str:
    """Canonical SHA-256 over every calibration constant of a config."""
    return canonical_digest(dataclasses.asdict(sim or DEFAULT_SIMULATION))


@dataclass(frozen=True)
class RunManifest:
    """Frozen provenance record identifying one simulated run.

    ``analysis_cache`` records the *requested* cache discipline (``None`` =
    unconstrained: the run's outputs are independent of the cache, which is
    what the determinism matrix asserts) — it is a pinned input, never a
    sample of live process state, so embedding it cannot break
    byte-determinism.
    """

    version: int
    workload: str
    scale: str
    epochs: int
    seed: int
    gpus: int
    parts: int
    sim_digest: str
    source_digest: str
    analysis_cache: Optional[bool]
    capture_replay: bool

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def build_manifest(key: str, scale: str = "test", epochs: int = 1,
                   seed: int = 0, gpus: int = 1, parts: int = 1,
                   sim: Optional[SimulationConfig] = None,
                   analysis_cache_flag: Optional[bool] = None,
                   capture_replay: bool = False) -> RunManifest:
    """The manifest for a run described by these parameters."""
    from ..core.cache import source_fingerprint

    return RunManifest(
        version=INSIGHTS_VERSION,
        workload=key,
        scale=scale,
        epochs=int(epochs),
        seed=int(seed),
        gpus=int(gpus),
        parts=int(parts),
        sim_digest=sim_digest(sim),
        source_digest=source_fingerprint(),
        analysis_cache=analysis_cache_flag,
        capture_replay=bool(capture_replay),
    )


# -- per-launch collection ---------------------------------------------------
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


class SiteCollector(Tracer):
    """A tracer that also folds one :class:`LaunchRow` per device-0 launch.

    Each logged launch carries its analysis record, whose timing
    *components* (the per-bound cycle counts the classifier needs) come
    from the same pure pipeline whether the analysis cache is on or off.
    DDP replicas are symmetric, so device 0 characterizes every peer.
    """

    def __init__(self) -> None:
        super().__init__()
        self.rows: list[LaunchRow] = []

    def on_launch(self, pid: int, entries: list[tuple]) -> None:
        super().on_launch(pid, entries)
        if pid != 0:
            return
        for entry in entries:
            if entry[0] != "K":
                continue
            start, desc, record = entry[2], entry[3], entry[4]
            mem = record.memory
            self.rows.append(LaunchRow(
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


# -- the attribution tree ----------------------------------------------------
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


def _roofline(flops: int, iops: int, dram_bytes: int, duration_us: float,
              sim: SimulationConfig) -> dict:
    """Arithmetic intensity and %-of-roof for one aggregated kernel site."""
    dev = sim.device
    duration_s = duration_us * 1e-6
    if flops > 0:
        basis, ops, peak = "fp32", flops, dev.peak_fp32_flops
    elif iops > 0:
        basis, ops, peak = "int32", iops, dev.peak_int32_iops
    else:
        basis, ops, peak = "memory", 0, 0.0
    dram_rate = dram_bytes / duration_s if duration_s else 0.0
    dram_util = dram_rate / dev.dram_bandwidth_bytes_per_s
    if basis == "memory":
        # pure data movement: the only meaningful roof is DRAM bandwidth
        return {"roof_basis": basis, "arithmetic_intensity": 0.0,
                "pct_of_roof": _r(dram_util), "dram_utilization": _r(dram_util)}
    ai = ops / dram_bytes if dram_bytes else 0.0
    achieved = ops / duration_s if duration_s else 0.0
    roof = min(peak, ai * dev.dram_bandwidth_bytes_per_s) if ai > 0 else peak
    return {
        "roof_basis": basis,
        "arithmetic_intensity": _r(ai),
        "pct_of_roof": _r(achieved / roof if roof else 0.0),
        "dram_utilization": _r(dram_util),
    }


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


def _summaries(flat_sites: list[dict]) -> dict:
    bound = {cls: 0.0 for cls in BOUND_CLASSES}
    phases: dict[str, float] = {}
    streams: dict[str, float] = {}
    for site in flat_sites:
        bound[site["bound_class"]] += site["duration_us"]
        phases[site["phase"]] = phases.get(site["phase"], 0.0) \
            + site["duration_us"]
        streams[site["stream"]] = streams.get(site["stream"], 0.0) \
            + site["duration_us"]
    total = sum(bound.values())
    return {
        "bound_summary": {
            cls: {"duration_us": dur,
                  "share": _r(dur / total if total else 0.0)}
            for cls, dur in bound.items()
        },
        "phase_summary": dict(sorted(phases.items())),
        "stream_summary": dict(sorted(streams.items())),
    }


# -- the report --------------------------------------------------------------
def insights_digest(report: dict) -> str:
    """SHA-256 over the measurements: canonical JSON minus the digest field
    and minus ``manifest.source_digest`` (which changes with every commit
    even when behaviour doesn't — goldens pin behaviour, not code bytes)."""
    payload = {k: v for k, v in report.items() if k != "insights_digest"}
    manifest = dict(payload.get("manifest", {}))
    manifest.pop("source_digest", None)
    payload["manifest"] = manifest
    return canonical_digest(payload)


def insights_report(key: str, scale: str = "test", epochs: int = 2,
                    seed: int = 0, gpus: int = 1,
                    sim: Optional[SimulationConfig] = None) -> dict:
    """Trace one workload, fold device 0's launches, and attribute them."""
    sim = sim or DEFAULT_SIMULATION
    with trace.session(tracer=SiteCollector()) as collector:
        timeline = trace.trace_point(key, num_gpus=gpus, scale=scale,
                                     epochs=epochs, seed=seed, sim=sim)
    tree, flat_sites = build_tree(timeline, collector.rows, sim=sim, pid=0)
    manifest = build_manifest(key, scale=scale, epochs=epochs, seed=seed,
                              gpus=gpus, sim=sim)
    report = {
        "version": INSIGHTS_VERSION,
        "manifest": manifest.as_dict(),
        "wall_us": timeline.wall_us(),
        "attributed_us": tree["duration_us"],
        "span_count": len(timeline),
        "launches": len(collector.rows),
        **_summaries(flat_sites),
        "sites": flat_sites,
        "tree": tree,
    }
    report["insights_digest"] = insights_digest(report)
    return report


# -- differential diagnosis --------------------------------------------------
def _report_kind(report: dict) -> str:
    if "tree" in report or "insights_digest" in report:
        return "insights"
    if "frontier" in report:
        return "shard"
    workloads = report.get("workloads", {})
    sample_fields = ("prefetch_epochs_per_s", "prefetch_wall_s")
    if any(f in report for f in sample_fields) or any(
            "prefetch_epochs_per_s" in row for row in workloads.values()
            if isinstance(row, dict)):
        return "sample"
    if "workload_speedups" in report or any(
            "warm_epochs_per_s" in row for row in workloads.values()
            if isinstance(row, dict)):
        return "hotpath"
    if "speedup" in report:
        return "hotpath"
    return "unknown"


def _site_table(report: dict) -> dict[tuple, dict]:
    return {(s["phase"], s["stream"], s["site"]): s
            for s in report.get("sites", [])}


def _diff_insights_reports(a: dict, b: dict, top: int) -> dict:
    sites_a, sites_b = _site_table(a), _site_table(b)
    movers = []
    for key in sorted(set(sites_a) | set(sites_b)):
        sa, sb = sites_a.get(key), sites_b.get(key)
        a_us = sa["duration_us"] if sa else 0.0
        b_us = sb["duration_us"] if sb else 0.0
        delta = b_us - a_us
        if delta == 0.0:
            continue
        ref = sb or sa
        movers.append({
            "phase": key[0], "stream": key[1], "site": key[2],
            "a_us": a_us, "b_us": b_us, "delta_us": delta,
            "bound_class": ref.get("bound_class", "transfer_or_stall"),
        })
    total_shift = sum(abs(m["delta_us"]) for m in movers)
    for m in movers:
        m["share"] = _r(abs(m["delta_us"]) / total_shift
                        if total_shift else 0.0)
    movers.sort(key=lambda m: (-abs(m["delta_us"]), m["phase"], m["stream"],
                               m["site"]))
    streams_a = a.get("stream_summary", {})
    streams_b = b.get("stream_summary", {})
    stream_deltas = {
        s: streams_b.get(s, 0.0) - streams_a.get(s, 0.0)
        for s in sorted(set(streams_a) | set(streams_b))
    }
    return {
        "kind": "insights",
        "workload_a": a.get("manifest", {}).get("workload"),
        "workload_b": b.get("manifest", {}).get("workload"),
        "a_us": a.get("attributed_us", 0.0),
        "b_us": b.get("attributed_us", 0.0),
        "delta_us": b.get("attributed_us", 0.0) - a.get("attributed_us", 0.0),
        "stream_deltas": stream_deltas,
        "movers": movers[:top],
    }


def _speedup_table(report: dict) -> dict[str, float]:
    table = report.get("workload_speedups")
    if isinstance(table, dict) and table:
        return {k: float(v) for k, v in table.items()}
    return {k: float(row["speedup"])
            for k, row in report.get("workloads", {}).items()
            if isinstance(row, dict) and "speedup" in row}


def _diff_hotpath(a: dict, b: dict, top: int) -> dict:
    speed_a, speed_b = _speedup_table(a), _speedup_table(b)
    movers = []
    for key in sorted(set(speed_a) & set(speed_b)):
        delta = speed_b[key] - speed_a[key]
        if delta == 0.0:
            continue
        movers.append({
            "workload": key, "stream": "kernels",
            "a_speedup": speed_a[key], "b_speedup": speed_b[key],
            "delta": delta,
        })
    movers.sort(key=lambda m: (m["delta"], m["workload"]))
    return {
        "kind": "hotpath",
        "a_speedup": float(a.get("speedup", 0.0)),
        "b_speedup": float(b.get("speedup", 0.0)),
        "movers": movers[:top],
    }


def _diff_sample(a: dict, b: dict, top: int) -> dict:
    rows_a = a.get("workloads", {})
    rows_b = b.get("workloads", {})
    movers = []
    for key in sorted(set(rows_a) & set(rows_b)):
        ra, rb = rows_a[key], rows_b[key]
        if not (isinstance(ra, dict) and isinstance(rb, dict)):
            continue
        sa = float(ra.get("speedup", 0.0))
        sb = float(rb.get("speedup", 0.0))
        stall_a = float(ra.get("prefetch_stall_s", 0.0))
        stall_b = float(rb.get("prefetch_stall_s", 0.0))
        delta = sb - sa
        stall_delta = stall_b - stall_a
        if delta == 0.0 and stall_delta == 0.0:
            continue
        movers.append({
            "workload": key,
            "stream": "loader" if stall_delta > 0 else "kernels",
            "a_speedup": sa, "b_speedup": sb, "delta": delta,
            "a_stall_s": stall_a, "b_stall_s": stall_b,
            "stall_delta_s": stall_delta,
        })
    movers.sort(key=lambda m: (m["delta"], -m["stall_delta_s"],
                               m["workload"]))
    return {
        "kind": "sample",
        "a_speedup": float(a.get("speedup", 0.0)),
        "b_speedup": float(b.get("speedup", 0.0)),
        "movers": movers[:top],
    }


def _shard_stream(label: str, config: dict) -> str:
    if config.get("offload"):
        return "h2d"
    if int(config.get("parts", 1)) > 1:
        return "halo"
    return "kernels"


def _diff_shard(a: dict, b: dict, top: int) -> dict:
    front_a = a.get("frontier", {})
    front_b = b.get("frontier", {})
    configs = b.get("configs", a.get("configs", {}))
    movers = []
    for label in sorted(set(front_a) | set(front_b)):
        fa = int(front_a.get(label, 0))
        fb = int(front_b.get(label, 0))
        if fa == fb:
            continue
        cfg = configs.get(label, {})
        if not cfg:
            cfg = {"parts": 1 if label == "gpus1" else 4,
                   "offload": label == "offload"}
        movers.append({
            "config": label,
            "workload": label,
            "stream": _shard_stream(label, cfg),
            "a_frontier": fa, "b_frontier": fb, "delta": fb - fa,
        })
    movers.sort(key=lambda m: (m["delta"], m["config"]))
    return {"kind": "shard", "movers": movers[:top]}


def diff_insights(a: dict, b: dict, top: int = 8) -> dict:
    """Attribute the delta between two reports to the top shifted units.

    ``a`` is the reference (committed baseline or "before"), ``b`` the
    measurement.  Accepts full insights reports or any of the three bench
    payloads/baselines (``BENCH_hotpath``/``BENCH_sample``/``BENCH_shard``
    shapes); sparse baselines that carry only an aggregate produce an empty
    ``movers`` list rather than an error.
    """
    kind_a, kind_b = _report_kind(a), _report_kind(b)
    kind = kind_b if kind_a in ("unknown", kind_b) else kind_a
    if kind == "insights" and kind_a == kind_b:
        return _diff_insights_reports(a, b, top)
    if kind == "shard":
        return _diff_shard(a, b, top)
    if kind == "sample":
        return _diff_sample(a, b, top)
    if kind == "hotpath":
        return _diff_hotpath(a, b, top)
    return {"kind": "unknown", "movers": []}


def render_diff_lines(diff: dict, top: int = 5) -> list[str]:
    """Human-readable attribution lines for gate failures and the CLI."""
    movers = diff.get("movers", [])[:top]
    if not movers:
        return []
    kind = diff.get("kind")
    lines = [f"top movers ({kind}, measured vs reference):"]
    for m in movers:
        if kind == "insights":
            lines.append(
                f"  {m['phase']}/{m['stream']}/{m['site']}: "
                f"{m['a_us']:.1f}us -> {m['b_us']:.1f}us "
                f"({m['delta_us']:+.1f}us, {m['share'] * 100:.0f}% of shift, "
                f"{m['bound_class']})"
            )
        elif kind == "hotpath":
            lines.append(
                f"  {m['workload']}: warm/cold speedup "
                f"{m['a_speedup']:.2f}x -> {m['b_speedup']:.2f}x "
                f"({m['delta']:+.2f}x, stream {m['stream']})"
            )
        elif kind == "sample":
            lines.append(
                f"  {m['workload']}: prefetch speedup "
                f"{m['a_speedup']:.2f}x -> {m['b_speedup']:.2f}x "
                f"({m['delta']:+.2f}x, stall "
                f"{m['stall_delta_s'] * 1e3:+.2f}ms, stream {m['stream']})"
            )
        elif kind == "shard":
            lines.append(
                f"  {m['config']}: capacity frontier "
                f"{m['a_frontier']} -> {m['b_frontier']} nodes "
                f"({m['delta']:+d}, stream {m['stream']})"
            )
    return lines
