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
  site``, a group-by over the trace's launch table and stream spans, whose
  node durations are exact sums of their children (streams
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

* every number reduces pure functions of ``(descriptor, SimulationConfig)``
  over the simulated clock — never wall time, never live cache state;
* the tree reads the trace's launch table, whose columns come from each
  launch's analysis record, a pure function of its descriptor, so reports
  are byte-identical with the global analysis cache on or off;
* a leaf sums its launches in launch order and a flat site sums its
  per-epoch leaves in sorted leaf order, as the table rule requires
  (:mod:`repro.profiling.table`);
* ``insights_digest`` is SHA-256 over the canonical JSON of the report with
  ``insights_digest`` itself and ``manifest.source_digest`` removed — the
  digest covers the measurements, while the source hash identifies the code
  that produced them (and legitimately changes every commit).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..canonical import canonical_digest
from ..gpu.config import DEFAULT_SIMULATION, SimulationConfig
from . import trace
from .table import COMPONENTS, STALL_REASONS, LaunchTable, first_rows

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


# -- the attribution tree ----------------------------------------------------
#: the float sums of a site: its duration, the launches' work and bytes,
#: their component cycles and their stall time per reason
_SUMS = (("duration_us", "fp32_flops", "int32_iops", "dram_bytes",
          "l2_bytes") + COMPONENTS + STALL_REASONS)
#: the count sums of a site: launches, non-kernel events and their bytes
_COUNTS = ("launches", "events", "bytes")


def _sites(keys: list[tuple], groups: np.ndarray, sums: np.ndarray,
           counts: np.ndarray) -> tuple[list, np.ndarray, np.ndarray,
                                        np.ndarray]:
    """Group rows by key (row ``i`` has key ``keys[groups[i]]``): the
    distinct keys in first-seen order, each row's key index among them, and
    each key's sums and counts, added in row order."""
    index: dict = {}
    codes = np.array([index.setdefault(keys[g], len(index))
                      for g in groups.tolist()], dtype=np.int64)
    site_sums = np.zeros((len(index), sums.shape[1]))
    site_counts = np.zeros((len(index), counts.shape[1]), dtype=np.int64)
    np.add.at(site_sums, codes, sums)
    np.add.at(site_counts, codes, counts)
    return list(index), codes, site_sums, site_counts


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


def _finalize_site(name: str, stream: str, sums: list, counts: list,
                   op: Optional[str], sim: SimulationConfig) -> dict:
    acc = dict(zip(_SUMS, sums))
    node = {"name": name, "kind": "site", "stream": stream,
            "duration_us": acc["duration_us"]}
    launches, events, nbytes = counts
    if stream == "kernels":
        comp = {c: acc[c] for c in COMPONENTS}
        stall_us = {r: acc[r] for r in STALL_REASONS}
        bound = max(comp, key=comp.get)
        top_stall = max(stall_us, key=stall_us.get)
        total_stall = sum(stall_us.values())
        node.update({
            "launches": launches,
            "op": op,
            "bound": bound,
            "bound_class": _COMPONENT_CLASS[bound],
            "fp32_flops": acc["fp32_flops"],
            "int32_iops": acc["int32_iops"],
            "dram_bytes": acc["dram_bytes"],
            "l2_bytes": acc["l2_bytes"],
            "top_stall": top_stall,
            "top_stall_share": _r(stall_us[top_stall] / total_stall
                                  if total_stall else 0.0),
        })
        node.update(_roofline(acc["fp32_flops"], acc["int32_iops"],
                              acc["dram_bytes"], acc["duration_us"], sim))
    else:
        node.update({
            "events": events,
            "bytes": nbytes,
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


def build_tree(timeline, sim: Optional[SimulationConfig] = None,
               pid: int = 0) -> tuple[dict, list[dict]]:
    """Reduce a timeline's launch table and stream spans of device ``pid``
    into ``(tree, flat_sites)``.

    The tree nests ``run → epoch → phase → stream → site`` with every
    parent's ``duration_us`` the exact sum of its children's (the Hypothesis
    property in ``tests/test_insights_properties.py``).  A leaf sums its
    launches (or its stream's spans) in order; ``flat_sites`` sums the
    leaves of each ``(phase, stream, site)`` across epochs, in sorted leaf
    order, and classifies them by the identical code path — the comparable
    unit :func:`diff_insights` works on.  Epoch membership is by start
    timestamp against the epoch spans of ``pid``; events before the first
    epoch clamp into it.
    """
    sim = sim or DEFAULT_SIMULATION
    epoch_spans = sorted(timeline.query(pid=pid, tid="epoch"),
                         key=lambda s: s.ts_us)
    starts = [s.ts_us for s in epoch_spans]
    labels = [s.name for s in epoch_spans] or ["epoch 0"]

    def epoch_of(ts_us: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(starts, ts_us, side="right") - 1
        return np.clip(idx, 0, len(labels) - 1)

    # one row per launch, then one per stream span, each keyed by its leaf
    table = timeline.kernels.get(pid, LaunchTable.of(()))
    phases, names = len(table.phases), len(table.names)
    combos, groups = np.unique(
        (epoch_of(table.start_s * 1e6) * phases + table.phase) * names
        + table.name, return_inverse=True)
    keys = [(labels[c // (phases * names)], table.phases[c // names % phases],
             "kernels", table.names[c % names]) for c in combos.tolist()]
    dur_us = table.duration_s * 1e6
    sums = [np.column_stack((dur_us, table.flops, table.iops,
                             table.dram_bytes, table.l2_bytes,
                             table.components,
                             table.stalls * dur_us[:, None]))]
    counts = [np.column_stack((np.ones(len(table), dtype=np.int64),
                               np.zeros((len(table), 2), dtype=np.int64)))]
    spans = [s for tid in _STREAM_PHASE
             for s in timeline.query(pid=pid, tid=tid)]
    for e, s in zip(epoch_of(np.array([s.ts_us for s in spans])).tolist(),
                    spans):
        keys.append((labels[e], _STREAM_PHASE[s.tid], s.tid, s.name))
    groups = np.concatenate((groups.reshape(-1), np.arange(
        len(keys) - len(spans), len(keys))))
    sums.append(np.zeros((len(spans), len(_SUMS))))
    sums[-1][:, 0] = [s.dur_us for s in spans]
    counts.append(np.array(
        [(0, 1, int(s.arg("nbytes", s.arg("bytes", 0)) or 0))
         for s in spans], dtype=np.int64).reshape(-1, len(_COUNTS)))
    leaves, leaf_of, leaf_sums, leaf_counts = _sites(
        keys, groups, np.concatenate(sums), np.concatenate(counts))
    # a kernel leaf's op is its first launch's
    first = first_rows(leaf_of[:len(table)], len(leaves))
    ops = [table.ops[table.op[first[i]]].value if leaf[2] == "kernels"
           else None for i, leaf in enumerate(leaves)]

    # flat sites sum their epochs' leaves in sorted leaf order; their op is
    # the first of those leaves'
    order = sorted(range(len(leaves)), key=leaves.__getitem__)
    flat, _, flat_sums, flat_counts = _sites(
        [leaves[i][1:] for i in order], np.arange(len(order)),
        leaf_sums[order], leaf_counts[order])
    flat_ops: dict = {}
    for i in order:
        flat_ops.setdefault(leaves[i][1:], ops[i])

    grouped: dict[str, dict[str, dict[str, dict]]] = {}
    for i in order:
        epoch, phase, stream, site = leaves[i]
        grouped.setdefault(epoch, {}).setdefault(phase, {}).setdefault(
            stream, {})[site] = _finalize_site(
                site, stream, leaf_sums[i].tolist(),
                leaf_counts[i].tolist(), ops[i], sim)

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
    for key, sums_row, counts_row in zip(flat, flat_sums.tolist(),
                                         flat_counts.tolist()):
        phase, stream, site = key
        entry = _finalize_site(site, stream, sums_row, counts_row,
                               flat_ops[key], sim)
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
    """Trace one workload and attribute device 0's launches and spans."""
    sim = sim or DEFAULT_SIMULATION
    timeline = trace.trace_point(key, num_gpus=gpus, scale=scale,
                                 epochs=epochs, seed=seed, sim=sim)
    tree, flat_sites = build_tree(timeline, sim=sim, pid=0)
    manifest = build_manifest(key, scale=scale, epochs=epochs, seed=seed,
                              gpus=gpus, sim=sim)
    report = {
        "version": INSIGHTS_VERSION,
        "manifest": manifest.as_dict(),
        "wall_us": timeline.wall_us(),
        "attributed_us": tree["duration_us"],
        "span_count": len(timeline),
        "launches": len(timeline.kernels.get(0, ())),
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
