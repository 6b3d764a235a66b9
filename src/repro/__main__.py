"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro table1                 # the suite inventory
    python -m repro fig2 ... fig8          # one characterization figure
    python -m repro fig9                   # the strong-scaling study
    python -m repro all                    # everything
    python -m repro profile TLSTM          # one workload, nvprof-style
    python -m repro profile --jobs 4       # whole suite, 4 worker processes
    python -m repro memory                 # device-memory occupancy table
    python -m repro memstats DGCN          # HBM allocator report, one workload
    python -m repro memstats               # peak_mem table, whole suite
    python -m repro golden                 # diff kernel streams vs snapshots
    python -m repro golden --update        # regenerate tests/golden/*.json
    python -m repro golden --serve         # one family: --traces, --memory,
                                           # --fused, --serve, --sample,
                                           # --shard, --insights,
                                           # --profiles or --scaling
    python -m repro bench                  # cold/parallel/warm suite timings
    python -m repro bench --capture-replay # replay epochs from a captured plan
    python -m repro bench --workload ARGA  # one workload's hot path, isolated
    python -m repro trace dgcn             # Chrome-format kernel timeline
    python -m repro trace tlstm --gpus 4 -o trace.json
    python -m repro serve psage-mvl --qps 100     # serving-latency report
    python -m repro serve dgcn --arrival bursty --batch-max 16 -o serve.json
    python -m repro sample arga            # mini-batch sampled-training report
    python -m repro sample arga --nodes 1000000 --strict   # 10^6-node graph
    python -m repro sample psage-mvl --fanouts 10,5 --prefetch-depth 4
    python -m repro sample                 # prefetch-vs-sync BENCH_sample.json
    python -m repro shard arga-p4          # partition-parallel training report
    python -m repro shard arga --parts 4 --nodes 600000 --feat-dim 8192 --strict
    python -m repro shard arga --parts 4 --offload     # out-of-core staging
    python -m repro shard                  # capacity frontier BENCH_shard.json
    python -m repro insights dgcn          # roofline/bottleneck attribution
    python -m repro insights dgcn --gpus 2 -o insights.json
    python -m repro insights --diff old.json new.json  # differential diagnosis

Each command accepts only the options it reads, with its own defaults
(``python -m repro CMD -h`` lists them): any other option exits 2 with
"unrecognized arguments", and a value outside its option's domain (an
epoch count below 1, a NaN rate, a missing baseline file, an output file
in a directory that does not exist) exits 2 naming the option before any
workload runs.  ``--metrics`` prints the metrics registry after a
successful run; ``--metrics-output FILE`` writes it as canonical JSON plus
a sibling ``.prom`` Prometheus dump.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

from . import GNNMark
from .core import executor, profile_workload

FIGURES = {
    "fig2": "render_op_breakdown",
    "fig3": "render_instruction_mix",
    "fig4": "render_throughput",
    "fig5": "render_stalls",
    "fig6": "render_cache",
    "fig7": "render_sparsity",
    "fig8": "render_sparsity_timeline",
}


def _print_timeline_summary(summary: dict) -> None:
    if not summary:
        return
    phases = ", ".join(f"{name} {frac * 100:.1f}%"
                       for name, frac in summary["phase_occupancy"].items())
    print(f"   timeline: {summary['span_count']} spans,"
          f" {summary['idle_fraction'] * 100:.1f}% idle,"
          f" {summary['compute_transfer_overlap'] * 100:.1f}%"
          f" compute/transfer overlap")
    if phases:
        print(f"   phases:   {phases}")


def _resolve_workload(name: str) -> str:
    """Case-insensitive workload lookup (``dgcn`` → ``DGCN``)."""
    from .core import registry

    for key in registry.WORKLOAD_KEYS:
        if key.lower() == name.lower():
            return key
    raise SystemExit(f"unknown workload {name!r}; "
                     f"have {sorted(registry.WORKLOAD_KEYS)}")


def _print_profile_stats(key: str, profile) -> None:
    print(f"== {key} ({len(profile.epoch_times)} epoch(s),"
          f" {profile.launch_count} kernels,"
          f" {profile.sim_time_s * 1e3:.2f} ms simulated)")
    hits = getattr(profile, "analysis_hits", 0)
    misses = getattr(profile, "analysis_misses", 0)
    if hits + misses:
        print(f"   analysis cache: {hits}/{hits + misses} hits"
              f" ({hits / (hits + misses) * 100:.1f}%)")
    _print_timeline_summary(getattr(profile, "timeline_summary", {}))
    for stats in profile.kernels.top_kernels(10):
        share = stats.total_time_s / profile.kernels.total_time_s * 100
        print(f"  {stats.name:<28} {stats.op_class.value:<12}"
              f" x{stats.launches:<5} {stats.total_time_s * 1e6:9.1f} us"
              f" ({share:4.1f}%)")


def _dump_metrics(output: str | None, manifest: dict | None = None) -> None:
    """Print the process-wide metrics registry as Prometheus text, or
    write its canonical JSON (with ``manifest`` as ``runManifest``, when
    given) to ``output`` and the Prometheus dump beside it as ``.prom``."""
    from .profiling import metrics

    reg = metrics.registry()
    if output is None:
        print(f"\n# metrics registry (digest {reg.digest()[:12]})")
        print(reg.to_prometheus(), end="")
        return
    path = Path(output)
    payload = reg.snapshot()
    if manifest is not None:
        payload = dict(payload)
        payload["runManifest"] = manifest
    path.write_text(reg.to_json(payload))
    prom = path.with_suffix(".prom")
    prom.write_text(reg.to_prometheus())
    print(f"wrote {path} and {prom} (metrics digest {reg.digest()[:12]})")


def _write_json(path: str, payload: dict, note: str = "") -> None:
    """Write one report as indented, key-sorted JSON and say so."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}{note}")


def _write_trace(timeline, path: str, key: str, **fields) -> dict:
    """Stamp, schema-check and write one Chrome trace; return its manifest."""
    from .profiling import insights, trace

    manifest = insights.build_manifest(key, **fields).as_dict()
    trace.validate_chrome(timeline.to_chrome(manifest=manifest))
    timeline.write(path, manifest=manifest)
    print(f"wrote {path}  (load in https://ui.perfetto.dev or "
          f"chrome://tracing)")
    return manifest


def _gate(report: dict, baseline: str | None, check, verdict) -> int:
    """Check ``report`` against a committed ``--baseline`` file, if given:
    a ``REGRESSION:`` line per failure and exit 1, else "baseline check ok"
    with ``verdict(committed)``."""
    if not baseline:
        return 0
    committed = json.loads(Path(baseline).read_text())
    failures = check(report, committed)
    for failure in failures:
        print(f"REGRESSION: {failure}")
    if failures:
        return 1
    print(f"baseline check ok ({verdict(committed)})")
    return 0


# -- command runners: each takes the parsed namespace and returns the exit code


def _run_table1(args) -> int:
    print(GNNMark().render_table1())
    return 0


def _run_figures(args) -> int:
    """``fig2``..``fig8`` and ``all``: render one suite characterization."""
    mark = GNNMark(scale=args.scale, seed=args.seed)
    suite = mark.characterize_suite(epochs=args.epochs, jobs=args.jobs,
                                    cache=not args.no_cache)
    for fig in FIGURES if args.command == "all" else [args.command]:
        print(getattr(mark, FIGURES[fig])(suite))
        print()
    if args.command == "all":
        print(mark.render_table1())
        print()
        _run_scaling(args)
    return 0


def _run_scaling(args) -> int:
    mark = GNNMark(seed=args.seed)
    print(mark.render_scaling(mark.scaling_study(
        epochs=args.epochs, jobs=args.jobs, cache=not args.no_cache)))
    return 0


def _run_profile(args) -> int:
    if args.workload:
        key = _resolve_workload(args.workload)
        _print_profile_stats(key, profile_workload(
            key, scale=args.scale, epochs=args.epochs, seed=args.seed,
            strict=args.strict))
        return 0
    suite = executor.run_suite(scale=args.scale, epochs=args.epochs,
                               seed=args.seed, strict=args.strict,
                               jobs=args.jobs, cache=not args.no_cache)
    for key, profile in suite.profiles.items():
        _print_profile_stats(key, profile)
        print()
    return 0


def _run_memory(args) -> int:
    mark = GNNMark(scale=args.scale, seed=args.seed)
    print(f"{'workload':<12}{'model MB':>10}{'data MB/epoch':>15}{'data %':>8}")
    print("-" * 45)
    for key in mark.workloads():
        mem = profile_workload(key, scale=mark.scale, epochs=1,
                               seed=mark.seed).memory_footprint()
        print(f"{key:<12}{mem['model_bytes'] / 1e6:>10.2f}"
              f"{mem['data_bytes_per_epoch'] / 1e6:>15.2f}"
              f"{mem['data_fraction'] * 100:>7.1f}%")
    return 0


def _run_memstats(args) -> int:
    from .core import characterize, registry
    from .profiling.report import format_memory_table

    if not args.workload:
        reports = executor.suite("memstats", registry.WORKLOAD_KEYS,
                                 jobs=args.jobs, cache=not args.no_cache,
                                 scale=args.scale, epochs=args.epochs,
                                 seed=args.seed, strict=args.strict)
        print(format_memory_table(reports))
        return 0
    key = _resolve_workload(args.workload)
    report = characterize.measure_memory(key, scale=args.scale,
                                         epochs=args.epochs, seed=args.seed,
                                         strict=args.strict)
    cap = report["capacity_bytes"]
    print(f"== {key} (scale={args.scale}, epochs={args.epochs}):"
          f" simulated HBM")
    print(f"   peak live     {report['peak_live_bytes'] / 1e6:10.2f} MB")
    print(f"   peak reserved {report['peak_reserved_bytes'] / 1e6:10.2f} MB"
          f"  ({report['utilization'] * 100:.2f}% of"
          f" {cap / 2**30:.0f} GiB capacity)")
    print(f"   live at end   {report['live_bytes'] / 1e6:10.2f} MB"
          f"  (reserved {report['reserved_bytes'] / 1e6:.2f} MB,"
          f" fragmentation {report['fragmentation'] * 100:.1f}%)")
    print(f"   allocator     {report['alloc_count']} allocs /"
          f" {report['free_count']} frees,"
          f" {report['segment_allocs']} segment allocs,"
          f" {report['bucket_reuse_count']} bucket reuses,"
          f" internal frag {report['internal_fragmentation'] * 100:.1f}%")
    if report["oom_events"]:
        print(f"   OOM           {report['oom_events']} capacity"
              f" violation(s) — rerun with --strict to raise")
    print("   phase watermarks (peak live MB):")
    for phase, peak in report["phase_watermarks"].items():
        print(f"     {phase:<12}{peak / 1e6:10.2f}")
    epochs = ", ".join(f"{w / 1e6:.2f}" for w in report["epoch_watermarks"])
    print(f"   epoch watermarks (MB): {epochs}")
    print("   top allocation labels (MB requested, count):")
    for name, nbytes, count in report["top_labels"]:
        print(f"     {name:<20}{nbytes / 1e6:10.2f}  x{count}")
    print(f"   memory digest {report['memory_digest'][:16]}")
    return 0


def _run_golden(args) -> int:
    from .testing import golden

    fam = golden.FAMILIES[args.golden_family]
    keys = list(fam.keys)
    if args.workload:
        keys = [k for k in fam.domain if k.lower() == args.workload.lower()]
        if not keys:
            raise ValueError(f"unknown {fam.name} golden key "
                             f"{args.workload!r}; have {sorted(fam.domain)}")
    cache = not args.no_cache
    if args.update:
        for path in golden.update(fam.name, keys, jobs=args.jobs,
                                  cache=cache):
            print(f"wrote {path}")
        return 0
    failed = 0
    for key, diffs in golden.verify(fam.name, keys, jobs=args.jobs,
                                    cache=cache).items():
        if not diffs:
            print(f"{key}: ok")
        elif len(diffs) == 1 and diffs[0].startswith("missing snapshot"):
            failed += 1
            print(f"{key}: MISSING ({diffs[0]})")
        else:
            failed += 1
            print(f"{key}: DIFFERS")
            for line in diffs:
                print(f"  {line}")
    if failed:
        print(f"{failed} workload(s) diverged; regenerate intentionally with "
              f"`{fam.regenerate}`")
    return 1 if failed else 0


def _run_bench(args) -> int:
    # the bench times the harness, not the workloads: test-scale configs by
    # default (--quick forces them), full profile scale via --scale profile
    scale, keys = ("test" if args.quick else args.scale), None
    if args.bench_workload:
        # single-workload mode: reproduce one workload's hot-path numbers in
        # isolation (skips the suite-level cold/parallel/warm timings)
        keys = [_resolve_workload(args.bench_workload)]
    else:
        report = executor.benchmark_suite(scale=scale,
                                          epochs=args.epochs or 1,
                                          seed=args.seed, jobs=args.jobs)
        print(f"suite of {len(report['suite'])} workloads"
              f" (scale={report['scale']}, epochs={report['epochs']},"
              f" jobs={report['jobs']}):")
        print(f"  cold serial    {report['cold_serial_s']:8.2f} s")
        print(f"  cold parallel  {report['cold_parallel_s']:8.2f} s"
              f"  ({report['parallel_speedup']:.2f}x)")
        print(f"  warm cache     {report['warm_cache_s']:8.2f} s"
              f"  ({report['warm_speedup']:.1f}x,"
              f" {report['warm_cache_hits']} hits)")
        _write_json(args.output, report)
    # steady-state launch-path microbench: warm (analysis cache on) vs cold
    # (REPRO_ANALYSIS_CACHE=0 semantics) epochs/sec per workload
    report = executor.benchmark_hotpath(keys=keys, scale=scale,
                                        epochs=args.epochs or 3,
                                        seed=args.seed,
                                        capture_replay=args.capture_replay,
                                        fuse=args.fuse)
    mode = ("capture-replay+fuse" if report["fuse"]
            else "capture-replay" if report["capture_replay"]
            else "dispatch")
    print(f"\nlaunch hot path (steady state, {report['epochs']} epoch(s)"
          f" after warm-up, scale={report['scale']}, mode={mode}):")
    print(f"  {'workload':<12}{'warm ep/s':>12}{'cold ep/s':>12}"
          f"{'speedup':>9}{'hit rate':>10}{'replayed':>10}")
    for key, row in report["workloads"].items():
        replayed = (str(row.get("replayed_epochs", 0))
                    if row["mode"] == "capture-replay" else "-")
        print(f"  {key:<12}{row['warm_epochs_per_s']:>12.2f}"
              f"{row['cold_epochs_per_s']:>12.2f}{row['speedup']:>8.2f}x"
              f"{row['hit_rate'] * 100:>9.1f}%{replayed:>10}")
    print(f"  {'suite':<12}{report['warm_epochs_per_s']:>12.2f}"
          f"{report['cold_epochs_per_s']:>12.2f}{report['speedup']:>8.2f}x")
    _write_json(args.hotpath_output, report)
    return _gate(report, args.baseline, executor.check_hotpath_regression,
                 lambda b: f"committed speedup {b.get('speedup', 0.0):.2f}x,"
                           f" measured {report['speedup']:.2f}x")


def _run_trace(args) -> int:
    from .profiling import trace

    key = _resolve_workload(args.workload)
    timeline = trace.trace_workload(key, scale=args.scale, epochs=args.epochs,
                                    seed=args.seed, memory=True,
                                    num_gpus=args.gpus)
    summary = timeline.summary()
    gpus = ", ".join(
        f"gpu{pid} {dev['busy_s'] * 1e3:.2f} ms busy"
        f" ({(1 - dev['idle_fraction']) * 100:.1f}%)"
        for pid, dev in summary["devices"].items()
    )
    print(f"== {key} (scale={args.scale}, epochs={args.epochs},"
          f" gpus={args.gpus}): {summary['wall_s'] * 1e3:.2f} ms wall")
    print(f"   {gpus}")
    _print_timeline_summary(summary)
    args.manifest = _write_trace(timeline, args.output or f"{key}_trace.json",
                                 key, scale=args.scale, epochs=args.epochs,
                                 seed=args.seed, gpus=args.gpus)
    return 0


def _print_hbm(report: dict, oom_hint: str = "") -> None:
    print(f"   HBM           peak live {report['peak_live_bytes'] / 1e6:.2f}"
          f" MB, peak reserved {report['peak_reserved_bytes'] / 1e6:.2f} MB"
          f" ({report['hbm_utilization'] * 100:.3f}% of capacity)")
    if report["oom_events"]:
        print(f"   OOM           {report['oom_events']} capacity"
              f" violation(s){oom_hint}")


def _print_serve_report(report: dict) -> None:
    lat, wait, comp = (report["latency_us"], report["wait_us"],
                       report["compute_us"])
    print(f"== {report['workload']} (scale={report['scale']},"
          f" arrival={report['arrival']}, qps={report['qps']:g},"
          f" batch_max={report['batch_max']},"
          f" max_wait={report['max_wait_us']:g} us)")
    print(f"   served        {report['completed']} requests in"
          f" {report['duration_s'] * 1e3:.2f} ms simulated"
          f"  ({report['throughput_rps']:.1f} req/s)")
    print(f"   {'':<10}{'p50':>10}{'p95':>10}{'p99':>10}{'max':>10}")
    for name, block in (("latency", lat), ("wait", wait), ("compute", comp)):
        print(f"   {name:<10}{block['p50']:>10.1f}{block['p95']:>10.1f}"
              f"{block['p99']:>10.1f}{block['max']:>10.1f}  us")
    hist = ", ".join(
        f"{size}x{count}"
        for size, count in sorted(report["batch_size_hist"].items(),
                                  key=lambda kv: int(kv[0]))
    )
    print(f"   batches       {report['batches']}"
          f" (mean size {report['mean_batch_size']:.2f}; {hist})")
    print(f"   fast path     {report['captured_plans']} captured plan(s),"
          f" {report['replayed_batches']} replayed batch(es)")
    _print_hbm(report)
    print(f"   serve digest  {report['serve_digest'][:16]}")


def _run_serve(args) -> int:
    from .serve import serve_run

    key = _resolve_workload(args.workload)
    report, timeline = serve_run(
        key, scale=args.scale, qps=args.qps, arrival=args.arrival,
        batch_max=args.batch_max, max_wait_us=args.max_wait_us,
        requests=args.requests, seed=args.seed, strict=args.strict,
        traced=args.output is not None)
    _print_serve_report(report)
    if timeline is not None:
        _write_trace(timeline, args.output, key, scale=args.scale, epochs=1,
                     seed=args.seed,
                     capture_replay=bool(report.get("captured_plans")))
    return 0


def _print_sample_report(report: dict) -> None:
    fanouts = "x".join(str(f) for f in report["fanouts"])
    print(f"== {report['workload']} (scale={report['scale']},"
          f" fanouts={fanouts}, batch={report['batch_size']},"
          f" prefetch_depth={report['prefetch_depth']},"
          f" epochs={report['epochs']})")
    print(f"   graph         {report['graph_nodes']} nodes,"
          f" {report['graph_edges']} edges,"
          f" {report['train_seeds']} train seeds")
    print(f"   sampler       {report['batches']} batches"
          f" ({report['batches_per_epoch']}/epoch),"
          f" {report['edges_sampled']} edges drawn,"
          f" {report['sample_cost_s'] * 1e3:.2f} ms host sampling")
    print(f"   loader stall  {report['loader_stall_s'] * 1e3:.2f} ms"
          f" ({report['loader_stall_fraction'] * 100:.1f}% of"
          f" {report['sim_wall_s'] * 1e3:.2f} ms simulated wall)")
    print(f"   queue         occupancy mean"
          f" {report['queue_occupancy_mean']:.2f},"
          f" max {report['queue_occupancy_max']}")
    print(f"   throughput    {report['epochs_per_sim_s']:.2f} epochs per"
          f" simulated second ({report['kernels']} kernels,"
          f" {report['h2d_bytes'] / 1e6:.2f} MB H2D)")
    _print_hbm(report)
    print(f"   sample digest {report['sample_digest'][:16]}")


def _run_sample(args) -> int:
    from .train.loader import sample_run

    if not args.workload:
        return _run_bench_sample(args)
    key = _resolve_workload(args.workload)
    report, timeline = sample_run(
        key, scale=args.scale, fanouts=args.fanouts,
        batch_size=args.batch_size, prefetch_depth=args.prefetch_depth,
        epochs=args.epochs, nodes=args.nodes, seed=args.seed,
        strict=args.strict, traced=args.output is not None)
    _print_sample_report(report)
    if timeline is not None:
        _write_trace(timeline, args.output, key, scale=args.scale,
                     epochs=args.epochs, seed=args.seed)
    return 0


def _run_bench_sample(args) -> int:
    # suite mode: the prefetch-vs-synchronous comparison (BENCH_sample.json),
    # gated against a committed baseline like the launch hot-path bench —
    # except these are simulated-clock numbers, so the gate can be strict
    report = executor.benchmark_sample(scale=args.scale, fanouts=args.fanouts,
                                       batch_size=args.batch_size,
                                       prefetch_depth=args.prefetch_depth,
                                       epochs=args.epochs, seed=args.seed,
                                       jobs=args.jobs,
                                       cache=not args.no_cache)
    print(f"mini-batch loader: prefetch_depth={report['prefetch_depth']} vs"
          f" synchronous ({report['epochs']} epoch(s),"
          f" scale={report['scale']},"
          f" fanouts={'x'.join(str(f) for f in report['fanouts'])},"
          f" batch={report['batch_size']}):")
    print(f"  {'workload':<12}{'sync ep/s':>12}{'prefetch ep/s':>15}"
          f"{'speedup':>9}{'stall sync':>12}{'stall pre':>11}")
    for key, row in report["workloads"].items():
        print(f"  {key:<12}{row['sync_epochs_per_s']:>12.2f}"
              f"{row['prefetch_epochs_per_s']:>15.2f}"
              f"{row['speedup']:>8.2f}x"
              f"{row['sync_stall_s'] * 1e3:>10.2f}ms"
              f"{row['prefetch_stall_s'] * 1e3:>9.2f}ms")
    print(f"  {'suite':<12}{'':>12}{'':>15}{report['speedup']:>8.2f}x")
    _write_json(args.output or "BENCH_sample.json", report)
    return _gate(report, args.baseline, executor.check_sample_regression,
                 lambda b: f"committed speedup {b.get('speedup', 0.0):.3f}x,"
                           f" measured {report['speedup']:.3f}x")


def _print_shard_report(report: dict) -> None:
    part = report["partition"]
    print(f"== {report['name']} ({report['workload']},"
          f" mode={report['mode']}, parts={report['parts']},"
          f" gpus={report['gpus']},"
          f" offload={'yes' if report['offload'] else 'no'},"
          f" epochs={report['epochs']})")
    print(f"   graph         {report['graph_nodes']} nodes,"
          f" {report['graph_edges']} edges, feat_dim={report['feat_dim']},"
          f" {report['train_nodes']} train seeds")
    print(f"   partition     {part['method']}+lp{part['refine']}:"
          f" cut {part['edge_cut']} ({part['cut_fraction'] * 100:.1f}%),"
          f" balance {part['achieved_balance']:.3f},"
          f" replication {part['replication_factor']:.2f}x")
    print(f"   halo          {report['halo_exchanges']} exchange(s),"
          f" {report['halo_bytes'] / 1e6:.2f} MB moved,"
          f" {report['halo_time_s'] * 1e3:.3f} ms on the NVLink model")
    print(f"   staging       {report['h2d_bytes'] / 1e6:.2f} MB H2D,"
          f" {report['d2h_bytes'] / 1e6:.2f} MB D2H,"
          f" {report['allreduce_bytes'] / 1e6:.2f} MB allreduced")
    print(f"   throughput    {report['epochs_per_sim_s']:.2f} epochs per"
          f" simulated second ({report['kernels']} kernels,"
          f" {report['sim_wall_s'] * 1e3:.2f} ms wall)")
    _print_hbm(report, " — rerun with --strict to raise")
    if report["losses"]:
        losses = ", ".join(f"{x:.6f}" for x in report["losses"])
        print(f"   loss          {losses}")
    print(f"   shard digest  {report['shard_digest'][:16]}"
          f"  (halo trace {report['halo_trace_digest'][:12]})")


def _run_shard(args) -> int:
    from .gpu.memory import OOMError
    from .train.sharded import shard_run

    if not args.workload:
        return _run_bench_shard(args)
    try:
        # an option left unset (None) keeps the named config's value
        report, timeline = shard_run(
            args.workload.upper(), parts=args.parts,
            offload=True if args.offload else None, nodes=args.nodes,
            feat_dim=args.feat_dim, epochs=args.epochs, seed=args.seed,
            strict=args.strict, traced=args.output is not None)
    except OOMError as exc:
        print(f"OOM under --strict: {exc}")
        print("shard the graph over more --parts, or stage it with --offload")
        return 1
    _print_shard_report(report)
    if timeline is not None:
        _write_trace(timeline, args.output, report["workload"], scale="shard",
                     epochs=report["epochs"], seed=args.seed,
                     gpus=report["gpus"], parts=report["parts"])
    return 0


def _run_bench_shard(args) -> int:
    # suite mode: the capacity-frontier study (BENCH_shard.json) — largest
    # trainable node count per device configuration under the HBM model,
    # gated exactly against a committed baseline (simulated => deterministic)
    report = executor.benchmark_shard(epochs=1, seed=args.seed,
                                      jobs=args.jobs, cache=not args.no_cache)
    print(f"capacity frontier (feat_dim={report['feat_dim']},"
          f" hidden={report['hidden']}, {report['epochs']} epoch(s),"
          f" ladder {report['ladder'][0]}..{report['ladder'][-1]} nodes):")
    print(f"  {'config':<10}{'parts':>6}{'offload':>9}{'frontier':>10}"
          f"{'peak GB':>9}")
    for label, cfg in report["configs"].items():
        frontier = cfg["frontier"]
        peak = (cfg["points"][str(frontier)]["peak_reserved_bytes"] / 2**30
                if frontier else 0.0)
        print(f"  {label:<10}{cfg['parts']:>6}"
              f"{'yes' if cfg['offload'] else 'no':>9}"
              f"{frontier:>10}{peak:>9.2f}")
    _write_json(args.output or "BENCH_shard.json", report)
    return _gate(report, args.baseline, executor.check_shard_regression,
                 lambda b: f"frontiers {b.get('frontier', {})} reproduced"
                           f" exactly")


def _run_insights(args) -> int:
    from .profiling import insights
    from .profiling.report import format_insights, format_insights_diff

    if args.diff:
        diff = insights.diff_insights(*(json.loads(Path(p).read_text())
                                        for p in args.diff))
        print(format_insights_diff(diff))
        if args.output:
            _write_json(args.output, diff)
        return 0
    if not args.workload:
        raise ValueError("the 'insights' command needs a workload key, e.g. "
                         "`python -m repro insights dgcn` "
                         "(or --diff REFERENCE.json MEASURED.json)")
    key = _resolve_workload(args.workload)
    report = insights.insights_report(key, scale=args.scale,
                                      epochs=args.epochs, seed=args.seed,
                                      gpus=args.gpus)
    print(format_insights(report))
    if args.output:
        _write_json(args.output, report, f"  (insights digest "
                                         f"{report['insights_digest'][:12]})")
    args.manifest = report["manifest"]
    return 0


# -- the command table --------------------------------------------------------


def _bounded(kind: type, low: int, strict: bool = False) -> Callable:
    """An argparse ``type=``: a ``kind`` > ``low`` (>= unless ``strict``)."""

    def parse(text: str):
        try:
            value = kind(text)
            ok = value > low or (value == low and not strict)
        except ValueError:
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(
                f"expected {kind.__name__} {'>' if strict else '>='} {low},"
                f" got {text!r}")
        return value

    return parse


POSITIVE_INT = _bounded(int, 1)
NON_NEGATIVE_INT = _bounded(int, 0)


def _fanouts(text: str) -> tuple[int, ...]:
    try:
        return tuple(POSITIVE_INT(f) for f in text.split(","))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated ints >= 1, got {text!r}") from None


def _existing_file(text: str) -> str:
    if not os.path.isfile(text):
        raise argparse.ArgumentTypeError(f"no such file: {text!r}")
    return text


def _output_file(text: str) -> str:
    parent = os.path.dirname(text) or "."
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"no such directory: {parent!r}")
    return text


def _option(*flags: str, **kwargs) -> Callable:
    return lambda parser: parser.add_argument(*flags, **kwargs)


def _golden_families(parser: argparse.ArgumentParser) -> None:
    from .testing import golden

    families = parser.add_mutually_exclusive_group()
    for fam in golden.FAMILIES.values():
        if fam.flag:
            families.add_argument(
                fam.flag, dest="golden_family", action="store_const",
                const=fam.name, help=f"diff or regenerate {fam.noun}s "
                                     f"(tests/golden/{fam.prefix}*.json)")
    parser.set_defaults(golden_family="stream")


#: every option, declared once: name -> a function that adds it to one
#: command's parser; each :class:`Command` row names the options it reads
OPTIONS = {
    "workload": _option("workload", help="workload key, case-insensitive"),
    "workload?": _option("workload", nargs="?", help="workload key or "
                         "named config (default: the whole suite)"),
    "scale": _option("--scale", choices=("test", "profile", "scaling"),
                     default="test", help="default: %(default)s"),
    "seed": _option("--seed", type=NON_NEGATIVE_INT, default=0),
    "epochs": _option("--epochs", type=POSITIVE_INT, default=1,
                      help="default: %(default)s"),
    "jobs": _option("--jobs", type=POSITIVE_INT, help="worker processes "
                    "(default: $REPRO_JOBS or serial)"),
    "no-cache": _option("--no-cache", action="store_true",
                        help="skip the persistent profile cache"),
    "strict": _option("--strict", action="store_true", help="check GPU-model "
                      "invariants; an HBM overflow raises"),
    "output": _option("-o", "--output", type=_output_file, metavar="FILE",
                      help="output file (see the command's help)"),
    "metrics": _option("--metrics", action="store_true",
                       help="print the metrics registry after the run"),
    "metrics-output": _option("--metrics-output", type=_output_file,
                              metavar="FILE", help="write the metrics "
                              "registry as JSON (+ .prom)"),
    "gpus": _option("--gpus", type=POSITIVE_INT, default=1,
                    help="simulated devices (default: %(default)s)"),
    "baseline": _option("--baseline", type=_existing_file, metavar="FILE",
                        help="committed baseline; exit 1 on a regression"),
    "nodes": _option("--nodes", type=int, help="nodes of a synthetic ARGA "
                     "citation graph"),
    "families": _golden_families,
    "update": _option("--update", action="store_true",
                      help="regenerate the snapshots instead of diffing"),
    "diff": _option("--diff", nargs=2, type=_existing_file,
                    metavar=("REFERENCE", "MEASURED"), help="diagnose the "
                    "delta between two saved reports or bench payloads"),
    "parts": _option("--parts", type=POSITIVE_INT, help="graph partitions "
                     "(default: the named config's, else 4)"),
    "offload": _option("--offload", action="store_true", help="stage "
                       "partitions out-of-core through one device's HBM"),
    "feat-dim": _option("--feat-dim", type=POSITIVE_INT, help="synthetic "
                        "feature width (default: the config's, else 64)"),
    "fanouts": _option("--fanouts", type=_fanouts, default="10,5",
                       help="per-layer neighbor fanouts, outermost first "
                            "(default: %(default)s)"),
    "batch-size": _option("--batch-size", type=POSITIVE_INT, default=64,
                          help="seeds per mini-batch (default: %(default)s)"),
    "prefetch-depth": _option("--prefetch-depth", type=NON_NEGATIVE_INT,
                              default=2, help="0 = synchronous sampling "
                                              "(default: %(default)s)"),
    "qps": _option("--qps", type=_bounded(float, 0, strict=True),
                   default=100.0, help="mean arrival rate per simulated "
                                       "second (default: %(default)s)"),
    "arrival": _option("--arrival", choices=("poisson", "bursty"),
                       default="poisson", help="bursty = 2-state MMPP"),
    "batch-max": _option("--batch-max", type=POSITIVE_INT, default=8,
                         help="batcher size cap (default: %(default)s)"),
    "max-wait-us": _option("--max-wait-us", type=_bounded(float, 0),
                           default=2000.0, help="longest the batcher holds "
                           "the queue head (default: %(default)s)"),
    "requests": _option("--requests", type=POSITIVE_INT, default=256,
                        help="default: %(default)s"),
    "quick": _option("--quick", action="store_true",
                     help="time the fast test-scale configs"),
    "bench-workload": _option("--workload", dest="bench_workload",
                              help="time one workload's hot path alone"),
    "capture-replay": _option("--capture-replay", action="store_true",
                              help="replay captured steady-state epochs"),
    "fuse": _option("--fuse", action="store_true", help="also fuse "
                    "elementwise runs in the replayed plan"),
    "hotpath-output": _option("--hotpath-output", type=_output_file,
                              metavar="FILE", default="BENCH_hotpath.json",
                              help="hot-path report (default: %(default)s)"),
}


class Command(NamedTuple):
    """A subcommand: runner, help, the OPTIONS it reads, their defaults."""

    run: Callable[[argparse.Namespace], int]
    help: str
    options: tuple[str, ...] = ()
    defaults: Mapping[str, object] = {}


SUITE = ("scale", "seed", "epochs", "jobs", "no-cache")
METRICS = ("metrics", "metrics-output")
PROFILE_SCALE = {"scale": "profile"}

COMMANDS = {
    "table1": Command(_run_table1, "the suite inventory (Table I)"),
    **{fig: Command(_run_figures, f"Figure {fig[3:]}: "
                    + name[len("render_"):].replace("_", " "),
                    SUITE, PROFILE_SCALE) for fig, name in FIGURES.items()},
    "fig9": Command(_run_scaling, "Figure 9: strong scaling on 1/2/4 GPUs",
                    ("seed", "epochs", "jobs", "no-cache")),
    "all": Command(_run_figures, "every figure, Table I and Figure 9",
                   SUITE, PROFILE_SCALE),
    "profile": Command(_run_profile, "kernel profile of a workload or suite",
                       ("workload?", *SUITE, "strict", *METRICS),
                       PROFILE_SCALE),
    "memory": Command(_run_memory, "device-memory occupancy table",
                      ("scale", "seed"), PROFILE_SCALE),
    "memstats": Command(_run_memstats, "HBM allocator report of a workload, "
                        "or the suite's peak_mem table",
                        ("workload?", *SUITE, "strict", *METRICS)),
    "golden": Command(_run_golden, "diff golden snapshots (kernel streams "
                      "unless a family flag is given)", ("workload?",
                      "families", "update", "jobs", "no-cache")),
    "bench": Command(_run_bench, "suite timings (-o) and the launch hot path;"
                     " --epochs defaults to 1 and 3 for them",
                     ("scale", "seed", "epochs", "jobs", "quick",
                      "bench-workload", "capture-replay", "fuse", "output",
                      "hotpath-output", "baseline"),
                     {"epochs": None, "output": "BENCH_suite.json"}),
    "trace": Command(_run_trace, "Chrome kernel timeline (-o, default "
                     "KEY_trace.json)", ("workload", "scale", "seed", "epochs",
                                         "gpus", "output", *METRICS)),
    "serve": Command(_run_serve, "serving-latency report (-o: Chrome trace)",
                     ("workload", "scale", "seed", "strict", "qps",
                      "arrival", "batch-max", "max-wait-us", "requests",
                      "output", *METRICS)),
    "sample": Command(_run_sample, "sampled-training report (-o: Chrome "
                      "trace); no key: the prefetch bench (-o: its JSON)",
                      ("workload?", *SUITE, "strict", "fanouts",
                       "batch-size", "prefetch-depth", "nodes", "output",
                       "baseline", *METRICS), {"epochs": 2}),
    "shard": Command(_run_shard, "sharded-training report of a workload or "
                     "named config such as ARGA-P4 (-o: Chrome trace); no "
                     "key: the capacity-frontier bench (-o: its JSON)",
                     ("workload?", "seed", "epochs", "jobs", "no-cache",
                      "strict", "parts", "offload", "nodes", "feat-dim",
                      "output", "baseline", *METRICS), {"epochs": 2}),
    "insights": Command(_run_insights, "bottleneck attribution of a workload"
                        " (-o: its JSON), or --diff of two saved reports",
                        ("workload?", "diff", "scale", "seed", "epochs",
                         "gpus", "output", *METRICS), {"epochs": 2}),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` parser: one subcommand per :data:`COMMANDS`
    row, carrying exactly the options that row names."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="GNNMark reproduction: regenerate the paper's artifacts",
    )
    # main reads these for every command; ``manifest`` is a runner's stamp
    parser.set_defaults(metrics=False, metrics_output=None, manifest=None)
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="COMMAND")
    for name, row in COMMANDS.items():
        sub = commands.add_parser(name, help=row.help, description=row.help)
        for option in row.options:
            OPTIONS[option](sub)
        sub.set_defaults(**row.defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = COMMANDS[args.command].run(args)
    except ValueError as exc:  # contradictory knobs the library rejects
        print(exc)
        return 2
    if code == 0 and (args.metrics or args.metrics_output):
        _dump_metrics(args.metrics_output, manifest=args.manifest)
    return code


if __name__ == "__main__":
    sys.exit(main())
