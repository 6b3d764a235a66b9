"""Golden snapshots: ten families, one table, one mechanism.

The op stream a workload emits is *emergent* from its forward/backward math,
so a refactor that silently changes the math changes the stream.  Every
simulated output the paper's figures rest on is pinned the same way: a JSON
snapshot per key under ``tests/golden/``, generated through the executor and
diffed field by field against a fresh run.  :data:`FAMILIES` lists the
families; each row says where its files live, which executor task generates
them under which parameters, which fields it records, which field is its
digest and which fields compare within a tolerance.  One
:func:`path`/:func:`load`/:func:`save`/:func:`compare`/:func:`verify`/
:func:`update` serves them all.

Regenerate after an *intentional* change with::

    PYTHONPATH=src python -m repro golden [--traces | --memory | --fused |
        --serve | --sample | --shard | --insights | --profiles |
        --scaling] --update

Everything hashed is derived from tensor shapes, graph structure, seeded RNG
draws and the simulated clock (never from float compute results), so
snapshots are bit-stable across machines, ``--jobs`` counts and cache
settings.  Training losses ARE compute results: they stay out of the digests
and compare within a tolerance.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Optional

import numpy as np

from ..canonical import canonical_digest, canonical_json
from ..core import registry
from ..core.run import workload_run
from ..profiling import trace
from ..profiling.nvprof import SAMPLED_METRICS
from ..profiling.table import STALL_REASONS
from ..serve.server import SERVE_PARAMS, SERVEABLE
from ..train.ddp import DDP_KEYS
from ..train.loader import SAMPLE_DEFAULT_KEYS, SAMPLE_PARAMS, SAMPLEABLE
from ..train.sharded import SHARD_GOLDEN_KEYS, SHARD_PARAMS
from ..train.trainer import Trainer

FINGERPRINT_VERSION = 1

#: repo-root tests/golden/ (this file lives at src/repro/testing/golden.py)
GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"


def golden_dir() -> Path:
    """Snapshot directory (override with ``REPRO_GOLDEN_DIR``)."""
    override = os.environ.get("REPRO_GOLDEN_DIR")
    return Path(override) if override else GOLDEN_DIR


# -- payloads -----------------------------------------------------------------

def _kernel_line(d) -> tuple:
    return ("K", d.name, d.op_class.value, d.phase, d.threads, d.block_size,
            d.fp32_flops, d.int32_iops, d.ldst_instrs, d.control_instrs,
            d.bytes_read, d.bytes_written)


def _transfer_line(r) -> tuple:
    # num_zeros is intentionally absent: d2h payloads are compute results,
    # and a borderline value flipping to exact zero must not change the
    # structural digest.
    return ("T", r.direction, r.label, r.nbytes, r.num_values, r.wire_bytes)


class StreamRecorder:
    """A fold over the launch/transfer stream of event-log entries.

    It keeps running aggregates, not the stream: the digest's hash state,
    the launch and transfer counts, their histograms and summed work.
    :meth:`fold` takes the entries in order, in as many chunks as the
    caller likes (one epoch at a time), and gives what one fold of the
    whole stream would; it serves as a trace session's ``fold``.
    """

    def __init__(self, entries=()) -> None:
        self._hash = hashlib.sha256()
        self.launch_count = 0
        self.transfer_count = 0
        self.op_class_launches: dict[str, int] = {}
        self.phase_launches: dict[str, int] = {}
        self.totals = {"fp32_flops": 0.0, "int32_iops": 0.0,
                       "ldst_instrs": 0.0, "control_instrs": 0.0,
                       "bytes_read": 0.0, "bytes_written": 0.0}
        self.transfer_totals = {"h2d_bytes": 0, "d2h_bytes": 0,
                                "wire_bytes": 0}
        self.fold(entries)

    def fold(self, entries, _table=None) -> None:
        totals, moved = self.totals, self.transfer_totals
        for entry in entries:
            if entry[0] == "K":
                line = _kernel_line(entry[3])
                (_, _, op_class, phase, _, _, flops, iops, ldst, control,
                 br, bw) = line
                self.launch_count += 1
                self.op_class_launches[op_class] = (
                    self.op_class_launches.get(op_class, 0) + 1)
                self.phase_launches[phase] = (
                    self.phase_launches.get(phase, 0) + 1)
                totals["fp32_flops"] += flops
                totals["int32_iops"] += iops
                totals["ldst_instrs"] += ldst
                totals["control_instrs"] += control
                totals["bytes_read"] += br
                totals["bytes_written"] += bw
            elif entry[0] == "T":
                line = _transfer_line(entry[1])
                _, direction, _, nbytes, _, wire = line
                self.transfer_count += 1
                moved[f"{direction}_bytes"] += nbytes
                moved["wire_bytes"] += wire
            else:
                continue
            self._hash.update(repr(line).encode())
            self._hash.update(b"\n")

    def digest(self) -> str:
        return self._hash.hexdigest()


def fingerprint_workload(
    key: str,
    scale: str = "test",
    epochs: int = 1,
    seed: int = 0,
) -> dict:
    """Train ``epochs`` of a workload and fingerprint its kernel stream.

    The run harness reseeds the framework RNG before building, so parameter
    initialization — and hence any data-dependent control flow — is
    reproducible across processes.  The stream is folded at each epoch end,
    so the run holds at most one epoch of event log, and it keeps no spans
    (:class:`~repro.profiling.trace.FoldOnlyTracer`) unless a caller's
    tracer is installed and owns the run.
    """
    recorder = StreamRecorder()
    with workload_run(partial(registry.get(key).build, scale=scale), seed,
                      observe=trace.FoldOnlyTracer,
                      fold=recorder.fold) as run:
        results = Trainer(workload=run.workload, device=run.device).run(
            epochs=epochs, seed=seed)
    return {
        "version": FINGERPRINT_VERSION,
        "workload": key,
        "scale": scale,
        "epochs": epochs,
        "seed": seed,
        "launch_count": recorder.launch_count,
        "transfer_count": recorder.transfer_count,
        "op_class_launches": dict(sorted(recorder.op_class_launches.items())),
        "phase_launches": dict(sorted(recorder.phase_launches.items())),
        "totals": recorder.totals,
        "transfer_totals": recorder.transfer_totals,
        "losses": [float(r.metrics.get("loss", 0.0)) for r in results],
        "stream_digest": recorder.digest(),
    }


# -- capture/replay differential fingerprints ---------------------------------
# These extend the stream-digest contract to the *replay fast path*
# (repro.gpu.graph_capture): a capture-replay run must be byte-identical to a
# steady-dispatch run — same ordered stream, same final clocks, same
# DeviceStats.  tests/test_graph_capture.py fans these out through the
# execution engine across --jobs counts and analysis-cache settings.

def capture_fingerprint(
    key: str,
    scale: str = "test",
    epochs: int = 5,
    seed: int = 0,
    mode: str = "capture",
    analysis_cache_enabled: Optional[bool] = None,
) -> dict:
    """Fingerprint a steady-state run, dispatched or captured-and-replayed.

    ``mode="steady"`` restores the steady-state snapshot and dispatches every
    epoch; ``mode="capture"`` runs the full warmup/capture/validate/replay
    state machine.  Beyond :func:`fingerprint_workload`'s stream digest, the
    payload pins the final device clocks and the complete ``DeviceStats`` —
    the quantities replay recomputes rather than records.  The process-global
    launch-analysis cache is cleared first (and forced on/off when
    ``analysis_cache_enabled`` is not ``None``) so hit/miss telemetry is a
    function of this run alone, regardless of what the hosting process or
    pool worker executed before.
    """
    import contextlib
    import dataclasses

    from ..gpu import analysis_cache

    if mode not in ("steady", "capture"):
        raise ValueError(f"mode must be 'steady' or 'capture', not {mode!r}")
    cache_ctx = (
        contextlib.nullcontext()
        if analysis_cache_enabled is None
        else analysis_cache.override(analysis_cache_enabled)
    )
    recorder = StreamRecorder()
    with cache_ctx:
        analysis_cache.clear()
        with workload_run(partial(registry.get(key).build, scale=scale),
                          seed, observe=trace.FoldOnlyTracer,
                          fold=recorder.fold) as run:
            trainer = Trainer(workload=run.workload, device=run.device,
                              steady=mode == "steady",
                              capture_replay=mode == "capture")
            results = trainer.run(epochs=epochs, seed=seed)
        analysis_cache.clear()

    device, controller = run.device, trainer._controller
    return {
        "version": FINGERPRINT_VERSION,
        "workload": key,
        "scale": scale,
        "epochs": epochs,
        "seed": seed,
        "mode": mode,
        "analysis_cache": analysis_cache_enabled,
        "launch_count": recorder.launch_count,
        "transfer_count": recorder.transfer_count,
        "stream_digest": recorder.digest(),
        "clock_s": device.clock_s,
        "host_clock_s": device.host_clock_s,
        "device_stats": dataclasses.asdict(device.stats),
        "losses": [float(r.metrics.get("loss", 0.0)) for r in results],
        "controller": controller.describe(),
    }


# -- fused streams ------------------------------------------------------------
# Fused plans intentionally diverge from dispatch (adjacent elementwise
# launches merge into synthetic kernels), so they get their own snapshot
# family instead of the differential contract: fused_<KEY>.json pins the
# fused event stream, the fusion census, and the work-conservation totals.

def fused_fingerprint(
    key: str,
    scale: str = "test",
    epochs: int = 5,
    seed: int = 0,
) -> dict:
    """Capture, fuse, and replay one workload; fingerprint the fused plan.

    ``epochs`` must cover warmup + capture + validate + at least one replayed
    epoch (>= 4).  Work conservation (summed instruction/byte counts equal
    before and after fusion) is asserted here, at generation time, on top of
    the property-test coverage.
    """
    from ..gpu import analysis_cache

    if epochs < 4:
        raise ValueError("fused fingerprints need epochs >= 4 "
                         "(warmup, capture, validate, replay)")
    analysis_cache.clear()
    with workload_run(partial(registry.get(key).build, scale=scale),
                      seed) as run:
        trainer = Trainer(workload=run.workload, device=run.device, fuse=True)
        results = trainer.run(epochs=epochs, seed=seed)
    analysis_cache.clear()

    controller = trainer._controller
    if controller.state != "replay":
        raise RuntimeError(
            f"{key}: capture fell back to dispatch: "
            f"{controller.fallback_reason}"
        )
    plan, fused = controller.plan, controller.fused_plan

    h = hashlib.sha256()
    fused_names: dict[str, int] = {}
    for event in fused.events:
        if event[0] == "K":
            d = event[1].descriptor
            line = _kernel_line(d)
            if d.name.startswith("fused_elementwise_x"):
                fused_names[d.name] = fused_names.get(d.name, 0) + 1
        elif event[0] == "T":
            line = _transfer_line(event[1])
        else:
            line = event
        h.update(repr(line).encode())
        h.update(b"\n")

    totals = plan.totals()
    fused_totals = fused.totals()
    for name, value in totals.items():
        if not np.isclose(value, fused_totals[name], rtol=1e-9, atol=0.0):
            raise AssertionError(
                f"{key}: fusion lost work: {name} {value!r} -> "
                f"{fused_totals[name]!r}"
            )

    # epoch 2 is the validated dispatch epoch, the last one a fused replay
    return {
        "version": FINGERPRINT_VERSION,
        "workload": key,
        "scale": scale,
        "epochs": epochs,
        "seed": seed,
        "launch_count": plan.kernel_count,
        "fused_launch_count": fused.kernel_count,
        "fused_kernels": fused.fused_kernels,
        "fused_members": fused.fused_members,
        "fused_name_counts": dict(sorted(fused_names.items())),
        "transfer_count": plan.transfer_count,
        "totals": totals,
        "epoch_sim_time_s_dispatch": results[2].sim_time_s,
        "epoch_sim_time_s_fused": results[-1].sim_time_s,
        "fused_stream_digest": h.hexdigest(),
    }


# -- insights fingerprints ----------------------------------------------------
# Insights snapshots store a compact fingerprint rather than the full report
# (the tree is large and every byte of it is already covered by
# ``insights_digest``); the digest deliberately excludes
# ``manifest.source_digest``, so snapshots survive commits that don't change
# behaviour.

#: flat sites carried verbatim in the fingerprint (the hottest N)
_INSIGHTS_TOP_SITES = 5


def insights_fingerprint(report: dict) -> dict:
    """Reduce a full insights report to the snapshot the goldens store."""
    manifest = report.get("manifest", {})
    top_sites = [
        {f: site[f] for f in ("phase", "stream", "site", "duration_us",
                              "bound_class")}
        for site in report.get("sites", [])[:_INSIGHTS_TOP_SITES]
    ]
    return {
        "version": report.get("version"),
        "workload": manifest.get("workload"),
        "scale": manifest.get("scale"),
        "epochs": manifest.get("epochs"),
        "seed": manifest.get("seed"),
        "gpus": manifest.get("gpus"),
        "sim_digest": manifest.get("sim_digest"),
        "wall_us": report.get("wall_us"),
        "attributed_us": report.get("attributed_us"),
        "span_count": report.get("span_count"),
        "launches": report.get("launches"),
        "site_count": len(report.get("sites", [])),
        "bound_summary": report.get("bound_summary", {}),
        "stream_summary": report.get("stream_summary", {}),
        "top_sites": top_sites,
        "insights_digest": report.get("insights_digest"),
    }


# -- profile fingerprints -----------------------------------------------------
#: the ``per_op_class`` metrics a profile snapshot digests
_PER_OP_METRICS = SAMPLED_METRICS + tuple(f"stall_{reason}"
                                          for reason in STALL_REASONS)


def profile_fingerprint(profile) -> dict:
    """Reduce a :class:`~repro.core.characterize.WorkloadProfile` to the
    snapshot the goldens store: every figure accessor's output, verbatim,
    plus digests of the larger views (the sparsity timeline, phase shares,
    per-op-class metrics, top kernels and the timeline summary)."""
    kernels, divergence = profile.kernels, profile.divergence
    snapshot = {
        "version": FINGERPRINT_VERSION, "workload": profile.key,
        "scale": profile.scale, "epochs": len(profile.epoch_times),
        "seed": profile.seed, "launch_count": profile.launch_count,
        "sim_time_s": profile.sim_time_s,
        **{view: getattr(profile, view)() for view in (
            "op_breakdown", "instruction_mix", "throughput", "stalls",
            "cache", "transfer_sparsity")},
        "divergence": {"by_category": divergence.by_category(),
                       "lines_per_warp": divergence.lines_per_warp()},
        "sparsity": {view: getattr(profile.sparsity, view)() for view in (
            "by_label", "periodicity_score", "compression_ratio")},
        "digests": {name: canonical_digest(view) for name, view in (
            ("sparsity_timeline", profile.sparsity_timeline().tolist()),
            ("phase_breakdown", kernels.phase_breakdown()),
            ("per_op_class", {m: kernels.per_op_class(m)
                              for m in _PER_OP_METRICS}),
            ("top_kernels", [(s.name, s.launches, s.sampled_launches,
                              s.total_time_s)
                             for s in kernels.top_kernels(10)]),
            ("timeline_summary", profile.timeline_summary))},
    }
    snapshot["profile_digest"] = canonical_digest(snapshot)
    return snapshot


# -- the family table ---------------------------------------------------------
@dataclass(frozen=True)
class GoldenFamily:
    """One snapshot family: its files, how they are generated and diffed."""

    #: family name, the first argument of :func:`verify` and friends
    name: str
    #: ``python -m repro golden`` flag selecting it (None: the default)
    flag: Optional[str]
    #: file name prefix: snapshot ``KEY`` lives at ``<prefix>KEY.json``
    prefix: str
    #: what one snapshot is, in messages
    noun: str
    #: executor task kind (``repro.core.executor.TASKS``) generating it
    task: str
    #: every key the family accepts
    domain: tuple
    #: the committed snapshots' keys, in report order
    keys: tuple
    #: task parameters ``update`` generates under, None for the runner's
    #: default; ``verify`` replays the values each snapshot records
    defaults: Mapping[str, object]
    #: the digest field; its diff line comes last
    digest: str
    #: ``field -> (rtol, atol)``; every other field compares exactly
    tolerance: Mapping[str, tuple] = field(default_factory=dict)
    #: reduces a task payload to the stored snapshot (default: identity)
    reduce: Optional[Callable[[dict], dict]] = None

    @property
    def regenerate(self) -> str:
        flag = f" {self.flag}" if self.flag else ""
        return f"python -m repro golden{flag} --update"


_WORKLOADS = tuple(registry.WORKLOAD_KEYS)
_TEST = dict(scale="test", epochs=1, seed=0)

FAMILIES = {family.name: family for family in (
    # one-epoch kernel streams: counts, histograms, instruction/byte
    # totals, losses and the ordered-stream digest
    GoldenFamily(
        name="stream", flag=None, prefix="", noun="snapshot",
        task="fingerprint", domain=_WORKLOADS, keys=_WORKLOADS,
        defaults=_TEST, digest="stream_digest",
        tolerance={"totals": (1e-9, 0.0), "transfer_totals": (1e-9, 0.0),
                   "losses": (1e-4, 1e-6)}),
    # the time domain: when every span sits on the simulated clock
    GoldenFamily(
        name="trace", flag="--traces", prefix="trace_", noun="trace",
        task="trace", domain=_WORKLOADS, keys=_WORKLOADS,
        defaults=dict(_TEST, num_gpus=1), digest="trace_digest"),
    # the capacity domain: HBM peaks, watermarks, allocator churn, labels
    GoldenFamily(
        name="memory", flag="--memory", prefix="memory_",
        noun="memory snapshot", task="memstats", domain=_WORKLOADS,
        keys=_WORKLOADS, defaults=_TEST, digest="memory_digest"),
    # capture + fuse + replay: the fused event stream and fusion census
    GoldenFamily(
        name="fused", flag="--fused", prefix="fused_", noun="fused stream",
        task="fused_fingerprint", domain=_WORKLOADS, keys=_WORKLOADS,
        defaults=dict(_TEST, epochs=5), digest="fused_stream_digest",
        tolerance={"totals": (1e-9, 0.0)}),
    # the latency domain: seeded arrivals, queueing, batch replay
    GoldenFamily(
        name="serve", flag="--serve", prefix="serve_",
        noun="serving snapshot", task="serve", domain=SERVEABLE,
        keys=("PSAGE-MVL", "PSAGE-NWP", "DGCN"),
        defaults=dict.fromkeys(SERVE_PARAMS), digest="serve_digest"),
    # mini-batch loader: batch/edge counts, sampler cost, stalls
    GoldenFamily(
        name="sample", flag="--sample", prefix="sample_",
        noun="sampled-training snapshot", task="sample", domain=SAMPLEABLE,
        keys=SAMPLE_DEFAULT_KEYS, defaults=dict.fromkeys(SAMPLE_PARAMS),
        digest="sample_digest"),
    # partition-parallel training, keyed by named configuration; each
    # configuration carries its own parameters, and fp64 losses are
    # summed in a partition-dependent order
    GoldenFamily(
        name="shard", flag="--shard", prefix="shard_",
        noun="sharded-training snapshot", task="shard",
        domain=SHARD_GOLDEN_KEYS, keys=SHARD_GOLDEN_KEYS,
        defaults=dict.fromkeys(SHARD_PARAMS), digest="shard_digest",
        tolerance={"losses": (0.0, 1e-9), "loss_final": (0.0, 1e-9)}),
    # the interpretation domain: roofline verdicts and attribution totals
    GoldenFamily(
        name="insights", flag="--insights", prefix="insights_",
        noun="insights snapshot", task="insights", domain=_WORKLOADS,
        keys=("DGCN", "KGNNL"), defaults=dict(_TEST, epochs=2, gpus=1),
        digest="insights_digest", reduce=insights_fingerprint),
    # the figure domain: every profile accessor behind Figs. 2-8; two
    # epochs carry the 50-invocation cap and the per-epoch folds across a
    # log window
    GoldenFamily(
        name="profile", flag="--profiles", prefix="profile_",
        noun="profile snapshot", task="profile", domain=_WORKLOADS,
        keys=_WORKLOADS, defaults=dict(_TEST, epochs=2),
        digest="profile_digest", reduce=profile_fingerprint),
    # the multi-GPU domain: each DDP workload's replica streams and the
    # strong (Fig. 9) and weak points that are arithmetic over them
    GoldenFamily(
        name="scaling", flag="--scaling", prefix="scaling_",
        noun="scaling study", task="scaling", domain=DDP_KEYS, keys=DDP_KEYS,
        defaults=dict(_TEST, gpu_counts=(1, 2, 4)), digest="scaling_digest"),
)}


def path(family: str, key: str) -> Path:
    fam = FAMILIES[family]
    return golden_dir() / f"{fam.prefix}{key}.json"


def load(family: str, key: str) -> dict:
    snapshot = path(family, key)
    if not snapshot.exists():
        fam = FAMILIES[family]
        raise FileNotFoundError(
            f"no golden {fam.noun} for {key!r} at {snapshot}; generate it "
            f"with `{fam.regenerate}`"
        )
    return json.loads(snapshot.read_text())


def save(family: str, key: str, snapshot: dict) -> Path:
    """Write canonical JSON (sorted keys, two-space indent, newline)."""
    out = path(family, key)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return out


def compare(family: str, expected: dict, actual: dict) -> list[str]:
    """Human-readable differences, empty when the snapshots match.

    Fields compare in name order; dicts entry by entry and lists element
    by element, so each line names the field (and entry) that moved.
    Fields in the family's ``tolerance`` compare with ``np.isclose``,
    everything else exactly.  The digest line comes last.
    """
    fam = FAMILIES[family]
    diffs: list[str] = []
    for name in sorted((set(expected) | set(actual)) - {fam.digest}):
        exp, act = expected.get(name), actual.get(name)
        tol = fam.tolerance.get(name)
        if isinstance(exp, dict) and isinstance(act, dict):
            pairs = [(f"{name}[{k}]", exp.get(k), act.get(k))
                     for k in sorted(set(exp) | set(act))]
        elif isinstance(exp, list) and isinstance(act, list):
            if len(exp) != len(act):
                diffs.append(f"{name}: expected {len(exp)} entries, "
                             f"got {len(act)}")
                continue
            pairs = [(f"{name}[{i}]", e, a)
                     for i, (e, a) in enumerate(zip(exp, act))]
        else:
            pairs = [(name, exp, act)]
        for label, e, a in pairs:
            same = (e == a if tol is None or e is None or a is None
                    else bool(np.isclose(e, a, rtol=tol[0], atol=tol[1])))
            if not same:
                diffs.append(f"{label}: expected {e!r}, got {a!r}")
    exp, act = expected.get(fam.digest), actual.get(fam.digest)
    if exp != act:
        diffs.append(
            f"{fam.digest}: expected {exp}, got {act} — the hashed payload "
            f"changed even though the summary stats above "
            f"{'also differ' if diffs else 'still match'}"
        )
    return diffs


def _snapshot(fam: GoldenFamily, payload: dict) -> dict:
    return fam.reduce(payload) if fam.reduce else payload


def verify(family: str, keys: Optional[list[str]] = None,
           jobs: Optional[int] = None, cache=None) -> dict[str, list[str]]:
    """Diff fresh payloads for ``keys`` (default: the family's) against the
    committed snapshots.

    Each snapshot regenerates under its own recorded parameters, grouped so
    every group is one executor suite; a missing snapshot surfaces as a
    one-line diff instead of raising, so one absent file doesn't abort the
    remaining keys.
    """
    from ..core import executor

    fam = FAMILIES[family]
    keys = list(keys or fam.keys)
    diffs: dict[str, list[str]] = {}
    groups: dict[str, tuple[dict, dict]] = {}
    for key in keys:
        try:
            expected = load(family, key)
        except FileNotFoundError as exc:
            diffs[key] = [f"missing snapshot: {exc}"]
            continue
        params = dict(fam.defaults)
        params.update((f, expected[f]) for f in fam.defaults if f in expected)
        group = groups.setdefault(canonical_json(params), (params, {}))
        group[1][key] = expected
    for params, snapshots in groups.values():
        fresh = executor.suite(fam.task, snapshots, jobs=jobs, cache=cache,
                               **params)
        for key, expected in snapshots.items():
            # compare what --update would write, not the in-memory payload
            actual = json.loads(json.dumps(_snapshot(fam, fresh[key])))
            diffs[key] = compare(family, expected, actual)
    return {key: diffs[key] for key in keys}


def update(family: str, keys: Optional[list[str]] = None,
           jobs: Optional[int] = None, cache=None) -> list[Path]:
    """Regenerate the snapshots for ``keys`` (default: the family's)."""
    from ..core import executor

    fam = FAMILIES[family]
    keys = list(keys or fam.keys)
    fresh = executor.suite(fam.task, keys, jobs=jobs, cache=cache,
                           **fam.defaults)
    return [save(family, key, _snapshot(fam, fresh[key])) for key in keys]
