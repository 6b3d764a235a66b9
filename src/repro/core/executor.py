"""Suite execution engine: process-pool fan-out + persistent profile cache.

``GNNMark.characterize_suite`` historically profiled all workloads strictly
serially in one process and recomputed everything from scratch on every
invocation.  Both costs are unnecessary:

* workloads are **independent** — each run builds its own
  :class:`~repro.gpu.device.SimulatedGPU` and reseeds the framework RNG, so
  characterizations fan out over a ``multiprocessing`` pool with no shared
  state (workers return picklable payloads);
* workloads are **deterministic** functions of
  ``(key, scale, epochs, seed)`` and the source tree (PR 1's golden
  fingerprints are the proof), so finished payloads persist in a
  :class:`~repro.core.cache.ProfileCache` and replay in milliseconds until
  the code changes.

Correctness here means *bit-identical kernel streams*: the serial, parallel
and cache-hit paths all execute the same self-seeding task functions, and
``tests/test_executor.py`` asserts byte-identical golden digests across all
three for every registry workload.

Tasks are declarative ``(kind, params)`` pairs so they cross process
boundaries without pickling closures.  :data:`TASKS` maps each kind to the
function that runs it, named by module and attribute so the import happens
in the executing process; :func:`suite` fans one kind out over many keys.

``jobs=None`` resolves the worker count from ``$REPRO_JOBS`` (default 1),
which is how CI exercises the parallel path under the stock pytest suite.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import tempfile
import time
import warnings
from typing import Optional, Sequence

from .cache import ProfileCache, resolve_cache
from . import registry

Task = tuple  # (kind: str, params: dict)


#: task kind -> (module, function) of the payload function it calls with
#: the task's params; a mode runner's ``(report, timeline)`` pair (the
#: timeline is ``None`` when untraced) yields the report
TASKS = {
    "profile": ("repro.core.characterize", "profile_workload"),
    "fingerprint": ("repro.testing.golden", "fingerprint_workload"),
    "scaling": ("repro.train.ddp", "scaling_study"),
    "trace": ("repro.profiling.trace", "trace_fingerprint"),
    "memstats": ("repro.core.characterize", "measure_memory"),
    "capture_fingerprint": ("repro.testing.golden", "capture_fingerprint"),
    "fused_fingerprint": ("repro.testing.golden", "fused_fingerprint"),
    "serve": ("repro.serve.server", "serve_run"),
    "sample": ("repro.train.loader", "sample_run"),
    "shard": ("repro.train.sharded", "shard_run"),
    "insights": ("repro.profiling.insights", "insights_report"),
}


def execute_task(task: Task):
    """Run one task in the current process.

    Reseeds the framework RNG from the task's own seed first, so a pool
    worker that just finished another workload starts from exactly the
    state a fresh process would — the task functions reseed themselves
    too, but the engine must not *rely* on that for worker isolation.
    """
    kind, params = task
    if kind not in TASKS:
        raise ValueError(f"unknown task kind {kind!r}; have {sorted(TASKS)}")
    from ..profiling import metrics
    from ..tensor import manual_seed

    module, name = TASKS[kind]
    run = getattr(importlib.import_module(module), name)
    manual_seed(int(params.get("seed", 0)))
    t0 = time.perf_counter()
    result = run(**params)
    if isinstance(result, tuple):
        result, _timeline = result
    # Per-task wall latency into the metrics registry.  This runs once per
    # *task* (a whole workload characterization), never per launch, so the
    # kernel hot path stays untouched; in a pool worker the observation
    # lands in that worker's registry and dies with the process.
    metrics.observe_task(kind, time.perf_counter() - t0, cached=False)
    return result


def resolve_jobs(jobs: Optional[int]) -> int:
    """``None`` → ``$REPRO_JOBS`` (default 1); always at least 1."""
    if jobs is None:
        try:
            jobs = int(os.environ.get("REPRO_JOBS", "1"))
        except ValueError:
            jobs = 1
    return max(1, int(jobs))


def _pool_context():
    # fork shares the already-imported interpreter (cheap workers on the
    # platforms CI runs on); fall back to spawn where fork is unavailable.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def run_tasks(tasks: Sequence[Task], jobs: Optional[int] = None,
              cache=None) -> list:
    """Execute ``tasks``, returning results aligned with the input order.

    Cache hits short-circuit execution entirely; misses run serially or on
    a process pool (``jobs`` workers) and are persisted afterwards.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    store: Optional[ProfileCache] = resolve_cache(cache)

    from ..profiling import metrics

    results: list = [None] * len(tasks)
    keys: list = [None] * len(tasks)
    pending: list[int] = []
    for i, (kind, params) in enumerate(tasks):
        if store is not None:
            keys[i] = store.key_for(kind, **params)
            t0 = time.perf_counter()
            hit = store.load(keys[i])
            if hit is not None:
                metrics.observe_task(kind, time.perf_counter() - t0,
                                     cached=True)
                results[i] = hit
                continue
        pending.append(i)

    if pending:
        if jobs > 1 and len(pending) > 1:
            ctx = _pool_context()
            with ctx.Pool(processes=min(jobs, len(pending))) as pool:
                computed = pool.map(
                    execute_task, [tasks[i] for i in pending], chunksize=1
                )
        else:
            computed = [execute_task(tasks[i]) for i in pending]
        for i, result in zip(pending, computed):
            results[i] = result
            if store is not None:
                store.store(keys[i], result)
    if store is not None:
        metrics.collect_profile_cache(store)
    return results


# -- suite-level conveniences -------------------------------------------------
def suite(kind: str, keys: Sequence[str], jobs: Optional[int] = None,
          cache=None, **params) -> dict:
    """Run one ``kind`` task per key with shared ``params``, keyed by key.

    Every task payload is a pure function of its own parameters (each task
    reseeds, builds its own device and hashes only its own stream), so the
    serial, pool and cache-hit paths return byte-identical payloads.
    """
    keys = list(keys)
    tasks: list[Task] = [(kind, dict(params, key=k)) for k in keys]
    return dict(zip(keys, run_tasks(tasks, jobs=jobs, cache=cache)))


def run_suite(keys: Optional[Sequence[str]] = None, scale: str = "profile",
              epochs: int = 1, seed: int = 0, strict: bool = False,
              jobs: Optional[int] = None, cache=None):
    """Characterize workloads through the engine → :class:`SuiteProfile`."""
    from .characterize import SuiteProfile

    return SuiteProfile(suite(
        "profile", registry.WORKLOAD_KEYS if keys is None else keys,
        jobs=jobs, cache=cache, scale=scale, epochs=epochs, seed=seed,
        strict=strict))


# -- benchmark ---------------------------------------------------------------
def benchmark_suite(keys: Optional[Sequence[str]] = None, scale: str = "test",
                    epochs: int = 1, seed: int = 0,
                    jobs: Optional[int] = None) -> dict:
    """Time cold-serial, cold-parallel and warm (cache-hit) suite runs.

    Uses throwaway cache directories so the measurement is hermetic: the
    "cold" timings never see a developer's populated cache, and nothing is
    left behind.  Returns the ``BENCH_suite.json`` payload.
    """
    if keys is None:
        keys = list(registry.WORKLOAD_KEYS)
    jobs = resolve_jobs(jobs)
    if jobs <= 1:
        cpus = os.cpu_count() or 1
        jobs = max(2, min(4, cpus))

    def timed(run_jobs: int, cache: ProfileCache) -> float:
        t0 = time.perf_counter()
        run_suite(keys, scale=scale, epochs=epochs, seed=seed,
                  jobs=run_jobs, cache=cache)
        return time.perf_counter() - t0

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        serial_cache = ProfileCache(root=os.path.join(tmp, "serial"))
        parallel_cache = ProfileCache(root=os.path.join(tmp, "parallel"))
        cold_serial_s = timed(1, serial_cache)
        cold_parallel_s = timed(jobs, parallel_cache)
        warm_s = timed(1, serial_cache)  # now fully populated
        warm_hits = serial_cache.hits

    return {
        "suite": list(keys),
        "scale": scale,
        "epochs": epochs,
        "seed": seed,
        "jobs": jobs,
        "cold_serial_s": cold_serial_s,
        "cold_parallel_s": cold_parallel_s,
        "warm_cache_s": warm_s,
        "warm_cache_hits": warm_hits,
        "parallel_speedup": cold_serial_s / cold_parallel_s
        if cold_parallel_s else 0.0,
        "warm_speedup": cold_serial_s / warm_s if warm_s else 0.0,
    }


def _steady_state_run(
    key: str, scale: str, epochs: int, seed: int,
    capture_replay: bool = False, fuse: bool = False, steady: bool = False,
) -> tuple[float, "object", "object"]:
    """Time ``epochs`` of steady-state training for one workload.

    Build and the first (warm-up) epoch are excluded: the paper's protocol
    reports stable per-epoch times, and the warm-up is what populates the
    launch-analysis cache, so the timed region measures the launch path a
    long training run actually lives on.  With ``capture_replay`` the timed
    region covers the capture, validation, and replayed epochs (the
    controller persists across the two ``run`` calls, so the warm-up epoch
    is also the capture warm-up); ``steady`` times restore-and-dispatch
    epochs under the same input discipline, which is the apples-to-apples
    dispatch baseline for replay.  Returns (wall seconds, device stats,
    controller-or-None).
    """
    from ..gpu.device import SimulatedGPU
    from ..tensor import manual_seed
    from ..train.trainer import Trainer

    spec = registry.get(key)
    manual_seed(seed)
    device = SimulatedGPU()
    workload = spec.build(device=device, scale=scale)
    trainer = Trainer(workload=workload, device=device,
                      capture_replay=capture_replay, fuse=fuse, steady=steady)
    trainer.run(epochs=1, seed=seed)
    device.stats.analysis_hits = device.stats.analysis_misses = 0
    t0 = time.perf_counter()
    trainer.run(epochs=epochs, seed=seed)
    return time.perf_counter() - t0, device.stats, trainer._controller


def benchmark_hotpath(keys: Optional[Sequence[str]] = None,
                      scale: str = "test", epochs: int = 3,
                      seed: int = 0, capture_replay: bool = False,
                      fuse: bool = False) -> dict:
    """Steady-state epochs/sec per workload, analysis cache on vs. off.

    The "warm" pass runs with the launch-analysis cache enabled (launches
    degrade to dict lookups after the warm-up epoch); the "cold" pass forces
    ``REPRO_ANALYSIS_CACHE=0`` semantics, running the full analytical
    pipeline on every launch — the pre-cache behaviour.  Both passes train
    identical workloads from identical seeds, so the simulated streams are
    byte-identical and only wall-clock differs.  Returns the
    ``BENCH_hotpath.json`` payload.

    With ``capture_replay`` the warm pass additionally captures the epoch
    plan and replays it (``repro.gpu.graph_capture``); the cold pass then
    runs steady dispatch under the same input discipline so the two streams
    stay identical.  ``fuse`` also merges adjacent elementwise launches in
    the replayed plan — the stream intentionally shrinks, so the comparison
    becomes epochs/sec only.
    """
    from ..gpu import analysis_cache

    if keys is None:
        keys = list(registry.WORKLOAD_KEYS)
    capture_replay = capture_replay or fuse
    workloads: dict[str, dict] = {}
    warm_total = cold_total = 0.0
    for key in keys:
        analysis_cache.clear()
        with analysis_cache.override(True):
            warm_s, stats, controller = _steady_state_run(
                key, scale, epochs, seed,
                capture_replay=capture_replay, fuse=fuse,
            )
            # snapshot while still inside the override: leaving the block
            # toggles the effective cache setting, which resets per-device
            # hit/miss counters (analysis_cache.register_toggle_hook)
            hits, misses = stats.analysis_hits, stats.analysis_misses
        with analysis_cache.override(False):
            cold_s, _, _ = _steady_state_run(
                key, scale, epochs, seed, steady=capture_replay,
            )
        warm_total += warm_s
        cold_total += cold_s
        launches = hits + misses
        workloads[key] = {
            "warm_s": warm_s,
            "cold_s": cold_s,
            "warm_epochs_per_s": epochs / warm_s if warm_s else 0.0,
            "cold_epochs_per_s": epochs / cold_s if cold_s else 0.0,
            "speedup": cold_s / warm_s if warm_s else 0.0,
            "steady_state_launches": launches,
            "analysis_hits": hits,
            "analysis_misses": misses,
            "hit_rate": hits / launches if launches else 0.0,
            "mode": "capture-replay" if capture_replay else "dispatch",
        }
        if controller is not None:
            workloads[key].update(controller.describe())
    analysis_cache.clear()
    return {
        "suite": list(keys),
        "scale": scale,
        "epochs": epochs,
        "seed": seed,
        "capture_replay": capture_replay,
        "fuse": fuse,
        "workloads": workloads,
        "warm_total_s": warm_total,
        "cold_total_s": cold_total,
        "warm_epochs_per_s": len(keys) * epochs / warm_total
        if warm_total else 0.0,
        "cold_epochs_per_s": len(keys) * epochs / cold_total
        if cold_total else 0.0,
        "speedup": cold_total / warm_total if warm_total else 0.0,
    }


def _attribute_failures(failures: list[str], baseline: dict,
                        report: dict) -> list[str]:
    """Append ``diff_insights`` attribution lines to a failing gate.

    The diagnoser tolerates sparse baselines (aggregate-only payloads yield
    no movers), so the gates stay usable against hand-written baselines.
    """
    if failures:
        from ..profiling.insights import diff_insights, render_diff_lines

        failures.extend(render_diff_lines(diff_insights(baseline, report)))
    return failures


def check_hotpath_regression(report: dict, baseline: dict,
                             tolerance: float = 0.25) -> list[str]:
    """Compare a hot-path report against a committed baseline.

    Wall-clock epochs/sec is machine-dependent, so the tracked numbers are
    warm-vs-cold *speedup ratios* — same-machine quantities.  The suite
    aggregate must stay within ``tolerance`` of the committed ratio, and
    each workload must stay above ``max(workload_floor, committed ratio *
    (1 - its tolerance))`` — ``workload_floor`` (default 1.2, the ROADMAP
    target) is a hard floor, and ``workload_tolerance`` in the baseline can
    loosen or tighten individual workloads.  On failure the messages end
    with a ``diff_insights`` attribution of which workloads shifted.
    """
    failures: list[str] = []
    base = float(baseline.get("speedup", 0.0))
    got = float(report.get("speedup", 0.0))
    floor = base * (1.0 - tolerance)
    if got < floor:
        failures.append(
            f"suite warm/cold speedup {got:.2f}x fell below "
            f"{floor:.2f}x ({(1 - tolerance) * 100:.0f}% of the committed "
            f"baseline {base:.2f}x)"
        )
    base_speedups = baseline.get("workload_speedups") or {}
    tolerances = baseline.get("workload_tolerance") or {}
    hard_floor = float(baseline.get("workload_floor", 0.0))
    rows = report.get("workloads", {})
    gated = set(base_speedups) | (set(rows) if hard_floor else set())
    for key in sorted(gated):
        row = rows.get(key)
        if not isinstance(row, dict) or "speedup" not in row:
            continue
        got_w = float(row["speedup"])
        tol_w = float(tolerances.get(key, tolerance))
        base_w = float(base_speedups.get(key, 0.0))
        floor_w = max(hard_floor, base_w * (1.0 - tol_w))
        if got_w < floor_w:
            failures.append(
                f"{key}: warm/cold speedup {got_w:.2f}x fell below "
                f"{floor_w:.2f}x (committed {base_w:.2f}x, tolerance "
                f"{tol_w * 100:.0f}%, hard floor {hard_floor:.2f}x)"
            )
    return _attribute_failures(failures, baseline, report)


def benchmark_sample(keys: Optional[Sequence[str]] = None,
                     scale: str = "test", fanouts=(10, 5),
                     batch_size: int = 64, prefetch_depth: int = 2,
                     epochs: int = 2, seed: int = 0,
                     jobs: Optional[int] = None, cache=None) -> dict:
    """Prefetch-vs-synchronous loader comparison (``BENCH_sample.json``).

    Runs every workload twice on the simulated clock — ``prefetch_depth=0``
    (the sampler blocks the device every batch) and ``prefetch_depth``
    (sampling overlaps compute behind a bounded queue) — and reports
    simulated epochs/sec for both.  Unlike the hot-path benchmark this
    measures *simulated* time, so the numbers are machine-independent and
    byte-deterministic; the CI gate can demand strict improvement.
    """
    from ..train.loader import SAMPLE_DEFAULT_KEYS

    if keys is None:
        keys = list(SAMPLE_DEFAULT_KEYS)
    fanouts = tuple(int(f) for f in fanouts)
    depths = (0, int(prefetch_depth))
    tasks: list[Task] = [
        ("sample", dict(key=k, scale=scale, fanouts=fanouts,
                        batch_size=batch_size, prefetch_depth=d,
                        epochs=epochs, nodes=None, seed=seed))
        for k in keys for d in depths
    ]
    results = run_tasks(tasks, jobs=jobs, cache=cache)
    reports = {(k, d): r for (k, d), r
               in zip([(k, d) for k in keys for d in depths], results)}
    workloads: dict[str, dict] = {}
    sync_wall = prefetch_wall = 0.0
    for key in keys:
        sync, pre = reports[(key, 0)], reports[(key, depths[1])]
        sync_wall += sync["sim_wall_s"]
        prefetch_wall += pre["sim_wall_s"]
        workloads[key] = {
            "sync_epochs_per_s": sync["epochs_per_sim_s"],
            "prefetch_epochs_per_s": pre["epochs_per_sim_s"],
            "speedup": (pre["epochs_per_sim_s"] / sync["epochs_per_sim_s"]
                        if sync["epochs_per_sim_s"] else 0.0),
            "sync_stall_s": sync["loader_stall_s"],
            "prefetch_stall_s": pre["loader_stall_s"],
            "sync_stall_fraction": sync["loader_stall_fraction"],
            "prefetch_stall_fraction": pre["loader_stall_fraction"],
            "queue_occupancy_mean": pre["queue_occupancy_mean"],
            "queue_occupancy_max": pre["queue_occupancy_max"],
            "sample_digest": pre["sample_digest"],
        }
    return {
        "suite": list(keys),
        "scale": scale,
        "fanouts": list(fanouts),
        "batch_size": int(batch_size),
        "prefetch_depth": int(depths[1]),
        "epochs": int(epochs),
        "seed": int(seed),
        "workloads": workloads,
        "sync_wall_s": sync_wall,
        "prefetch_wall_s": prefetch_wall,
        "speedup": sync_wall / prefetch_wall if prefetch_wall else 0.0,
    }


def check_sample_regression(report: dict, baseline: dict,
                            tolerance: float = 0.05) -> list[str]:
    """Gate the prefetch pipeline against its committed baseline.

    All quantities are simulated-clock, hence deterministic: every workload
    must show prefetch strictly beating the synchronous loader on epochs/sec
    with less stall time, and the suite-level speedup must stay within
    ``tolerance`` of the committed baseline's.
    """
    failures: list[str] = []
    for key, w in report.get("workloads", {}).items():
        if w["prefetch_epochs_per_s"] <= w["sync_epochs_per_s"]:
            failures.append(
                f"{key}: prefetch {w['prefetch_epochs_per_s']:.2f} ep/s does "
                f"not beat synchronous {w['sync_epochs_per_s']:.2f} ep/s"
            )
        if w["prefetch_stall_s"] >= w["sync_stall_s"]:
            failures.append(
                f"{key}: prefetch stall {w['prefetch_stall_s']:.6f}s did not "
                f"shrink vs synchronous {w['sync_stall_s']:.6f}s"
            )
    base = float(baseline.get("speedup", 0.0))
    got = float(report.get("speedup", 0.0))
    floor = base * (1.0 - tolerance)
    if got < floor:
        failures.append(
            f"suite prefetch speedup {got:.3f}x fell below {floor:.3f}x "
            f"({(1 - tolerance) * 100:.0f}% of the committed baseline "
            f"{base:.3f}x)"
        )
    return _attribute_failures(failures, baseline, report)


#: capacity-frontier probe grid: node-count ladder x device configurations
SHARD_BENCH = dict(
    ladder=(40960, 49152, 57344, 65536, 73728, 81920, 90112, 98304),
    feat_dim=65536,
    hidden=64,
    configs=(
        ("gpus1", 1, False),
        ("gpus2", 2, False),
        ("gpus4", 4, False),
        ("offload", 4, True),
    ),
)


def benchmark_shard(ladder: Optional[Sequence[int]] = None,
                    feat_dim: Optional[int] = None,
                    hidden: Optional[int] = None,
                    epochs: int = 1, seed: int = 0,
                    jobs: Optional[int] = None, cache=None) -> dict:
    """Capacity-frontier study (``BENCH_shard.json``).

    For each device configuration (1/2/4 partition-parallel GPUs, plus
    host-offload through one GPU) every node count on the ladder runs one
    capacity-mode epoch under the 16 GiB HBM model; a point *fits* when no
    device records an OOM event.  The frontier is the largest fitting node
    count.  Everything is geometry + simulated clocks, hence
    byte-deterministic; the CI gate pins the frontiers exactly.
    """
    ladder = tuple(int(n) for n in (ladder or SHARD_BENCH["ladder"]))
    feat_dim = int(feat_dim or SHARD_BENCH["feat_dim"])
    hidden = int(hidden or SHARD_BENCH["hidden"])
    configs = SHARD_BENCH["configs"]
    grid = [(cfg, nodes) for cfg in configs for nodes in ladder]
    tasks: list[Task] = [
        ("shard", dict(key="ARGA", parts=parts, offload=offload, nodes=nodes,
                       feat_dim=feat_dim, hidden=hidden, epochs=epochs,
                       seed=seed, mode="capacity", strict=False,
                       name=f"frontier-{label}-{nodes}"))
        for (label, parts, offload), nodes in grid
    ]
    with warnings.catch_warnings():
        # non-fitting probes intentionally overflow the capacity model
        warnings.simplefilter("ignore", ResourceWarning)
        results = run_tasks(tasks, jobs=jobs, cache=cache)
    by_point = {(label, nodes): r for ((label, _, _), nodes), r
                in zip(grid, results)}
    out_configs: dict[str, dict] = {}
    frontier: dict[str, int] = {}
    for label, parts, offload in configs:
        points = {}
        best = 0
        for nodes in ladder:
            r = by_point[(label, nodes)]
            fits = r["oom_events"] == 0
            if fits:
                best = nodes
            points[str(nodes)] = {
                "fits": fits,
                "oom_events": r["oom_events"],
                "peak_reserved_bytes": r["peak_reserved_bytes"],
                "halo_bytes": r["halo_bytes"],
                "sim_wall_s": r["sim_wall_s"],
            }
        out_configs[label] = {"parts": parts, "offload": offload,
                              "frontier": best, "points": points}
        frontier[label] = best
    return {
        "ladder": list(ladder),
        "feat_dim": feat_dim,
        "hidden": hidden,
        "epochs": int(epochs),
        "seed": int(seed),
        "configs": out_configs,
        "frontier": frontier,
    }


def check_shard_regression(report: dict, baseline: dict) -> list[str]:
    """Gate the capacity frontier against its committed baseline.

    The frontier is a deterministic function of the partitioner, the byte
    model and the HBM capacity, so the gate demands exact equality per
    configuration, monotone growth with GPU count, and that host offload
    extends the plain single-GPU frontier.
    """
    failures: list[str] = []
    got = report.get("frontier", {})
    base = baseline.get("frontier", {})
    for label in sorted(set(base) | set(got)):
        if got.get(label) != base.get(label):
            failures.append(
                f"{label}: capacity frontier {got.get(label)} != committed "
                f"baseline {base.get(label)}"
            )
    order = [got.get(label, 0) for label in ("gpus1", "gpus2", "gpus4")]
    if sorted(order) != order:
        failures.append(
            f"frontier not monotone in GPU count: {order} (gpus1/2/4)"
        )
    if got.get("offload", 0) <= got.get("gpus1", 0):
        failures.append(
            f"host offload frontier {got.get('offload')} does not extend "
            f"the plain single-GPU frontier {got.get('gpus1')}"
        )
    return _attribute_failures(failures, baseline, report)
