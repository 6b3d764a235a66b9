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
    python -m repro golden --traces        # diff timeline traces vs snapshots
    python -m repro golden --memory        # diff HBM reports vs snapshots
    python -m repro golden --fused         # diff fused replay streams
    python -m repro bench                  # cold/parallel/warm suite timings
    python -m repro bench --capture-replay # replay epochs from a captured plan
    python -m repro bench --workload ARGA  # one workload's hot path, isolated
    python -m repro trace dgcn             # Chrome-format kernel timeline
    python -m repro trace tlstm --gpus 4 -o trace.json
    python -m repro serve psage-mvl --qps 100     # serving-latency report
    python -m repro serve dgcn --arrival bursty --batch-max 16 -o serve.json
    python -m repro golden --serve         # diff serving reports vs snapshots
    python -m repro sample arga            # mini-batch sampled-training report
    python -m repro sample arga --nodes 1000000 --strict   # 10^6-node graph
    python -m repro sample psage-mvl --fanouts 10,5 --prefetch-depth 4
    python -m repro sample                 # prefetch-vs-sync BENCH_sample.json
    python -m repro golden --sample        # diff sampling reports vs snapshots
    python -m repro shard arga-p4          # partition-parallel training report
    python -m repro shard arga --parts 4 --nodes 600000 --feat-dim 8192 --strict
    python -m repro shard arga --parts 4 --offload     # out-of-core staging
    python -m repro shard                  # capacity frontier BENCH_shard.json
    python -m repro golden --shard         # diff sharded reports vs snapshots
    python -m repro insights dgcn          # roofline/bottleneck attribution
    python -m repro insights dgcn --gpus 2 -o insights.json
    python -m repro insights --diff old.json new.json  # differential diagnosis
    python -m repro golden --insights      # diff insights reports vs snapshots

Suite-level commands accept ``--jobs N`` (characterize independent
workloads on N worker processes) and ``--no-cache`` (recompute instead of
replaying unchanged profiles from the persistent on-disk cache).
``profile``, ``trace`` and ``memstats`` accept ``--metrics`` (dump the
process-wide metrics registry in Prometheus text format afterwards) and
``--metrics-output FILE`` (write the canonical-JSON snapshot there, plus a
sibling ``.prom`` Prometheus dump).
"""

from __future__ import annotations

import argparse
import json
import sys

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


def _print_profile(mark: GNNMark, key: str, epochs: int,
                   strict: bool = False) -> None:
    profile = profile_workload(key, scale=mark.scale, epochs=epochs,
                               seed=mark.seed, strict=strict)
    _print_profile_stats(key, profile)


def _print_profile_suite(mark: GNNMark, epochs: int, strict: bool,
                         jobs: int | None, cache) -> None:
    suite = executor.run_suite(scale=mark.scale, epochs=epochs,
                               seed=mark.seed, strict=strict, jobs=jobs,
                               cache=cache)
    for key, profile in suite.profiles.items():
        _print_profile_stats(key, profile)
        print()


def _print_memory(mark: GNNMark) -> None:
    print(f"{'workload':<12}{'model MB':>10}{'data MB/epoch':>15}{'data %':>8}")
    print("-" * 45)
    for key in mark.workloads():
        profile = profile_workload(key, scale=mark.scale, epochs=1,
                                   seed=mark.seed)
        mem = profile.memory_footprint()
        print(f"{key:<12}{mem['model_bytes'] / 1e6:>10.2f}"
              f"{mem['data_bytes_per_epoch'] / 1e6:>15.2f}"
              f"{mem['data_fraction'] * 100:>7.1f}%")


def _dump_metrics(output: str | None, manifest: dict | None = None) -> None:
    """Print (or write) the process-wide metrics registry.

    Without ``--metrics-output`` the Prometheus text format goes to stdout;
    with it, the canonical-JSON snapshot lands at the given path and the
    Prometheus dump beside it as ``<stem>.prom``.  When the caller knows
    which run populated the registry, its :class:`RunManifest` is embedded
    as a top-level ``runManifest`` key in the JSON export (the Prometheus
    dump and the registry digest stay manifest-free).
    """
    from pathlib import Path

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


def _print_memstats(args, cache) -> int:
    from .core import characterize, executor, registry
    from .profiling.report import format_memory_table

    scale = args.scale or "test"
    if args.workload:
        key = _resolve_workload(args.workload)
        report = characterize.measure_memory(key, scale=scale,
                                             epochs=args.epochs,
                                             seed=args.seed,
                                             strict=args.strict)
        cap = report["capacity_bytes"]
        print(f"== {key} (scale={scale}, epochs={args.epochs}): simulated HBM")
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
    else:
        reports = executor.suite("memstats", registry.WORKLOAD_KEYS,
                                 jobs=args.jobs, cache=cache, scale=scale,
                                 epochs=args.epochs, seed=args.seed,
                                 strict=args.strict)
        print(format_memory_table(reports))
    if args.metrics or args.metrics_output:
        _dump_metrics(args.metrics_output)
    return 0


def _run_golden(args, cache) -> int:
    from .testing import golden

    fam = golden.FAMILIES[args.golden_family]
    keys = list(fam.keys)
    if args.workload:
        keys = [k for k in fam.domain if k.lower() == args.workload.lower()]
        if not keys:
            print(f"unknown {fam.name} golden key {args.workload!r}; "
                  f"have {sorted(fam.domain)}")
            return 2
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
    print(f"   HBM           peak live {report['peak_live_bytes'] / 1e6:.2f}"
          f" MB, peak reserved {report['peak_reserved_bytes'] / 1e6:.2f} MB"
          f" ({report['hbm_utilization'] * 100:.3f}% of capacity)")
    if report["oom_events"]:
        print(f"   OOM           {report['oom_events']} capacity"
              f" violation(s)")
    print(f"   serve digest  {report['serve_digest'][:16]}")


def _run_serve(args) -> int:
    from .profiling import trace as trace_mod
    from .serve import serve_run

    if not args.workload:
        print("the 'serve' command needs a workload key, e.g. "
              "`python -m repro serve psage-mvl --qps 100`")
        return 2
    key = _resolve_workload(args.workload)
    try:
        report, timeline = serve_run(
            key, scale=args.scale or "test", qps=args.qps,
            arrival=args.arrival, batch_max=args.batch_max,
            max_wait_us=args.max_wait_us, requests=args.requests,
            seed=args.seed, strict=args.strict,
            traced=args.output is not None)
    except ValueError as exc:  # contradictory knobs / unserveable workload
        print(exc)
        return 2
    _print_serve_report(report)
    if timeline is not None:
        from .profiling import insights

        manifest = insights.build_manifest(
            key, scale=args.scale or "test", epochs=1, seed=args.seed,
            capture_replay=bool(report.get("captured_plans"))).as_dict()
        trace_mod.validate_chrome(timeline.to_chrome(manifest=manifest))
        timeline.write(args.output, manifest=manifest)
        print(f"wrote {args.output}  (load in https://ui.perfetto.dev or "
              f"chrome://tracing)")
    if args.metrics or args.metrics_output:
        _dump_metrics(args.metrics_output)
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
    print(f"   HBM           peak live {report['peak_live_bytes'] / 1e6:.2f}"
          f" MB, peak reserved {report['peak_reserved_bytes'] / 1e6:.2f} MB"
          f" ({report['hbm_utilization'] * 100:.3f}% of capacity)")
    if report["oom_events"]:
        print(f"   OOM           {report['oom_events']} capacity"
              f" violation(s)")
    print(f"   sample digest {report['sample_digest'][:16]}")


def _run_sample_cmd(args, cache) -> int:
    from .profiling import trace as trace_mod
    from .train.loader import sample_run

    fanouts = tuple(int(f) for f in args.fanouts.split(","))
    epochs = args.epochs if args.epochs > 1 else 2
    if not args.workload:
        return _run_bench_sample(args, fanouts, epochs, cache)
    key = _resolve_workload(args.workload)
    try:
        report, timeline = sample_run(
            key, scale=args.scale or "test", fanouts=fanouts,
            batch_size=args.batch_size, prefetch_depth=args.prefetch_depth,
            epochs=epochs, nodes=args.nodes, seed=args.seed,
            strict=args.strict, traced=args.output is not None)
    except ValueError as exc:  # contradictory knobs / unsampleable workload
        print(exc)
        return 2
    _print_sample_report(report)
    if timeline is not None:
        from .profiling import insights

        manifest = insights.build_manifest(
            key, scale=args.scale or "test", epochs=epochs,
            seed=args.seed).as_dict()
        trace_mod.validate_chrome(timeline.to_chrome(manifest=manifest))
        timeline.write(args.output, manifest=manifest)
        print(f"wrote {args.output}  (load in https://ui.perfetto.dev or "
              f"chrome://tracing)")
    if args.metrics or args.metrics_output:
        _dump_metrics(args.metrics_output)
    return 0


def _run_bench_sample(args, fanouts: tuple, epochs: int, cache) -> int:
    # suite mode: the prefetch-vs-synchronous comparison (BENCH_sample.json),
    # gated against a committed baseline like the launch hot-path bench —
    # except these are simulated-clock numbers, so the gate can be strict
    report = executor.benchmark_sample(scale=args.scale or "test",
                                       fanouts=fanouts,
                                       batch_size=args.batch_size,
                                       prefetch_depth=args.prefetch_depth,
                                       epochs=epochs, seed=args.seed,
                                       jobs=args.jobs, cache=cache)
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
    out = args.output or "BENCH_sample.json"
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")

    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        failures = executor.check_sample_regression(report, baseline)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}")
            return 1
        print(f"baseline check ok (committed speedup"
              f" {baseline.get('speedup', 0.0):.3f}x,"
              f" measured {report['speedup']:.3f}x)")
    if args.metrics or args.metrics_output:
        _dump_metrics(args.metrics_output)
    return 0


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
    print(f"   HBM           peak live {report['peak_live_bytes'] / 1e6:.2f}"
          f" MB, peak reserved {report['peak_reserved_bytes'] / 1e6:.2f} MB"
          f" ({report['hbm_utilization'] * 100:.3f}% of capacity)")
    if report["oom_events"]:
        print(f"   OOM           {report['oom_events']} capacity"
              f" violation(s) — rerun with --strict to raise")
    if report["losses"]:
        losses = ", ".join(f"{x:.6f}" for x in report["losses"])
        print(f"   loss          {losses}")
    print(f"   shard digest  {report['shard_digest'][:16]}"
          f"  (halo trace {report['halo_trace_digest'][:12]})")


def _run_shard_cmd(args, cache) -> int:
    from .gpu.memory import OOMError
    from .profiling import trace as trace_mod
    from .train.sharded import resolve_shard_config, shard_run

    if not args.workload:
        return _run_bench_shard(args, cache)
    try:
        key, params = resolve_shard_config(args.workload.upper())
    except ValueError as exc:
        print(exc)
        return 2
    if args.parts is not None:
        params["parts"] = args.parts
    if args.offload:
        params["offload"] = True
    if args.nodes is not None:
        params["nodes"] = args.nodes
    if args.feat_dim is not None:
        params["feat_dim"] = args.feat_dim
    if args.epochs > 1:
        params["epochs"] = args.epochs
    params["seed"] = args.seed
    params["strict"] = args.strict
    try:
        report, timeline = shard_run(key, traced=args.output is not None,
                                     **params)
    except ValueError as exc:  # contradictory knobs / unshardable workload
        print(exc)
        return 2
    except OOMError as exc:
        print(f"OOM under --strict: {exc}")
        print("shard the graph over more --parts, or stage it with --offload")
        return 1
    _print_shard_report(report)
    if timeline is not None:
        from .profiling import insights

        manifest = insights.build_manifest(
            key, scale="shard", epochs=report["epochs"], seed=args.seed,
            gpus=report["gpus"], parts=report["parts"]).as_dict()
        trace_mod.validate_chrome(timeline.to_chrome(manifest=manifest))
        timeline.write(args.output, manifest=manifest)
        print(f"wrote {args.output}  (load in https://ui.perfetto.dev or "
              f"chrome://tracing)")
    if args.metrics or args.metrics_output:
        _dump_metrics(args.metrics_output)
    return 0


def _run_bench_shard(args, cache) -> int:
    # suite mode: the capacity-frontier study (BENCH_shard.json) — largest
    # trainable node count per device configuration under the HBM model,
    # gated exactly against a committed baseline (simulated => deterministic)
    report = executor.benchmark_shard(epochs=1, seed=args.seed,
                                      jobs=args.jobs, cache=cache)
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
    out = args.output or "BENCH_shard.json"
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")

    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        failures = executor.check_shard_regression(report, baseline)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}")
            return 1
        print(f"baseline check ok (frontiers"
              f" {baseline.get('frontier', {})} reproduced exactly)")
    if args.metrics or args.metrics_output:
        _dump_metrics(args.metrics_output)
    return 0


def _run_insights_cmd(args) -> int:
    from .profiling import insights
    from .profiling.report import format_insights, format_insights_diff

    if args.diff:
        ref_path, new_path = args.diff
        with open(ref_path) as fh:
            reference = json.load(fh)
        with open(new_path) as fh:
            measured = json.load(fh)
        diff = insights.diff_insights(reference, measured)
        print(format_insights_diff(diff))
        if args.output:
            with open(args.output, "w") as fh:
                json.dump(diff, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.output}")
        return 0
    if not args.workload:
        print("the 'insights' command needs a workload key, e.g. "
              "`python -m repro insights dgcn` "
              "(or --diff REFERENCE.json MEASURED.json)")
        return 2
    key = _resolve_workload(args.workload)
    epochs = args.epochs if args.epochs > 1 else 2
    try:
        report = insights.insights_report(key, scale=args.scale or "test",
                                          epochs=epochs, seed=args.seed,
                                          gpus=args.gpus)
    except ValueError as exc:  # e.g. whole-graph workloads at --gpus > 1
        print(exc)
        return 2
    print(format_insights(report))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}  (insights digest "
              f"{report['insights_digest'][:12]})")
    if args.metrics or args.metrics_output:
        _dump_metrics(args.metrics_output, manifest=report["manifest"])
    return 0


def _run_trace(args) -> int:
    from .profiling import insights, trace

    key = _resolve_workload(args.workload) if args.workload else None
    if key is None:
        print("the 'trace' command needs a workload key, e.g. "
              "`python -m repro trace dgcn`")
        return 2
    scale = args.scale or "test"
    try:
        # memory counter tracks ride along on single-device traces only
        timeline = trace.trace_point(key, num_gpus=args.gpus, scale=scale,
                                     epochs=args.epochs, seed=args.seed,
                                     memory=args.gpus == 1)
    except ValueError as exc:  # e.g. whole-graph workloads at --gpus > 1
        print(exc)
        return 2
    manifest = insights.build_manifest(key, scale=scale, epochs=args.epochs,
                                       seed=args.seed,
                                       gpus=args.gpus).as_dict()
    chrome = timeline.to_chrome(manifest=manifest)
    trace.validate_chrome(chrome)
    out = args.output or f"{key}_trace.json"
    timeline.write(out, manifest=manifest)
    summary = timeline.summary()
    gpus = ", ".join(
        f"gpu{pid} {dev['busy_s'] * 1e3:.2f} ms busy"
        f" ({(1 - dev['idle_fraction']) * 100:.1f}%)"
        for pid, dev in summary["devices"].items()
    )
    print(f"== {key} (scale={scale}, epochs={args.epochs},"
          f" gpus={args.gpus}): {summary['wall_s'] * 1e3:.2f} ms wall")
    print(f"   {gpus}")
    _print_timeline_summary(summary)
    print(f"wrote {out}  (load in https://ui.perfetto.dev or chrome://tracing)")
    if args.metrics or args.metrics_output:
        _dump_metrics(args.metrics_output, manifest=manifest)
    return 0


def _run_bench(args) -> int:
    # the bench times the harness, not the workloads: test-scale configs by
    # default (--quick forces them), full profile scale via --scale profile
    scale = "test" if args.quick else (args.scale or "test")
    if args.bench_workload:
        # single-workload mode: reproduce one workload's hot-path numbers in
        # isolation (skips the suite-level cold/parallel/warm timings)
        key = _resolve_workload(args.bench_workload)
        return _run_bench_hotpath(args, scale, keys=[key])
    report = executor.benchmark_suite(scale=scale, epochs=args.epochs,
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
    out = args.output or "BENCH_suite.json"
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    return _run_bench_hotpath(args, scale)


def _run_bench_hotpath(args, scale: str,
                       keys: list[str] | None = None) -> int:
    # steady-state launch-path microbench: warm (analysis cache on) vs cold
    # (REPRO_ANALYSIS_CACHE=0 semantics) epochs/sec per workload
    hotpath_epochs = args.epochs if args.epochs > 1 else 3
    report = executor.benchmark_hotpath(keys=keys, scale=scale,
                                        epochs=hotpath_epochs,
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
    with open(args.hotpath_output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.hotpath_output}")

    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        failures = executor.check_hotpath_regression(report, baseline)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}")
            return 1
        print(f"baseline check ok (committed speedup"
              f" {baseline.get('speedup', 0.0):.2f}x,"
              f" measured {report['speedup']:.2f}x)")
    return 0


def main(argv: list[str] | None = None) -> int:
    from .testing import golden

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="GNNMark reproduction: regenerate the paper's artifacts",
    )
    parser.add_argument("command",
                        choices=["table1", *FIGURES, "fig9", "all",
                                 "profile", "memory", "memstats", "golden",
                                 "bench", "trace", "serve", "sample",
                                 "shard", "insights"],
                        help="which artifact to regenerate")
    parser.add_argument("workload", nargs="?",
                        help="workload key (for 'profile', 'memstats', "
                             "'golden', 'trace', 'serve', 'sample', 'shard' "
                             "and 'insights'; case-insensitive for 'trace', "
                             "'memstats', 'serve', 'sample', 'shard' and "
                             "'insights')")
    parser.add_argument("--epochs", type=int, default=1)
    parser.add_argument("--scale", default=None,
                        choices=["test", "profile", "scaling"],
                        help="workload configs (default: profile; "
                             "'bench' defaults to test)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for suite-level commands "
                             "(default: $REPRO_JOBS or serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="always recompute; skip the persistent profile "
                             "cache")
    parser.add_argument("--update", action="store_true",
                        help="regenerate golden snapshots instead of diffing")
    families = parser.add_mutually_exclusive_group()
    for fam in golden.FAMILIES.values():
        if fam.flag:
            families.add_argument(
                fam.flag, dest="golden_family", action="store_const",
                const=fam.name,
                help=f"'golden': operate on {fam.noun}s "
                     f"(tests/golden/{fam.prefix}*.json) instead of kernel "
                     f"streams")
    parser.set_defaults(golden_family="stream")
    parser.add_argument("--diff", nargs=2,
                        metavar=("REFERENCE", "MEASURED"),
                        help="'insights': diagnose the delta between two "
                             "saved reports (insights JSON or any bench "
                             "payload/baseline) instead of running a "
                             "workload")
    parser.add_argument("--parts", type=int, default=None,
                        help="'shard': number of graph partitions "
                             "(default: the named config's, else 4)")
    parser.add_argument("--offload", action="store_true",
                        help="'shard': stage partitions out-of-core through "
                             "one device's HBM instead of one GPU per part")
    parser.add_argument("--feat-dim", type=int, default=None,
                        help="'shard': synthetic feature width (default: the "
                             "named config's, else 64)")
    parser.add_argument("--fanouts", default="10,5",
                        help="'sample': comma-separated per-layer neighbor "
                             "fanouts, outermost first (default 10,5)")
    parser.add_argument("--batch-size", type=int, default=64,
                        help="'sample': seeds per mini-batch")
    parser.add_argument("--prefetch-depth", type=int, default=2,
                        help="'sample': bounded prefetch queue depth "
                             "(0 = synchronous sampling)")
    parser.add_argument("--nodes", type=int, default=None,
                        help="'sample': synthesize a citation graph of this "
                             "many nodes instead of the registry dataset "
                             "(ARGA only)")
    parser.add_argument("--qps", type=float, default=100.0,
                        help="'serve': mean request arrival rate "
                             "(requests per simulated second)")
    parser.add_argument("--arrival", choices=["poisson", "bursty"],
                        default="poisson",
                        help="'serve': arrival process (bursty = 2-state "
                             "MMPP averaging the same qps)")
    parser.add_argument("--batch-max", type=int, default=8,
                        help="'serve': dynamic batcher size cap")
    parser.add_argument("--max-wait-us", type=float, default=2000.0,
                        help="'serve': longest the batcher may hold the "
                             "queue head (simulated microseconds)")
    parser.add_argument("--requests", type=int, default=256,
                        help="'serve': number of requests to generate")
    parser.add_argument("--capture-replay", action="store_true",
                        help="'bench': capture each workload's steady-state "
                             "epoch and replay it instead of re-dispatching "
                             "(repro.gpu.graph_capture)")
    parser.add_argument("--fuse", action="store_true",
                        help="'bench': with capture/replay, also merge "
                             "adjacent elementwise launches in the replayed "
                             "plan (implies --capture-replay)")
    parser.add_argument("--workload", dest="bench_workload", default=None,
                        help="'bench': time a single workload's hot path in "
                             "isolation (case-insensitive key; skips the "
                             "suite-level timings)")
    parser.add_argument("--metrics", action="store_true",
                        help="after 'profile'/'trace'/'memstats': dump the "
                             "process-wide metrics registry (Prometheus text "
                             "format)")
    parser.add_argument("--metrics-output", default=None,
                        help="write the metrics snapshot as canonical JSON "
                             "to this file, plus a sibling .prom dump")
    parser.add_argument("--gpus", type=int, default=1,
                        help="'trace'/'insights': number of simulated "
                             "devices (multi-GPU runs trace the DDP "
                             "allreduce)")
    parser.add_argument("--strict", action="store_true",
                        help="validate GPU-model invariants on every record "
                             "(the 'profile' command)")
    parser.add_argument("--quick", action="store_true",
                        help="'bench': time the fast test-scale configs")
    parser.add_argument("-o", "--output", default=None,
                        help="output file ('trace': the Chrome JSON, default "
                             "<KEY>_trace.json; 'bench': the timing report, "
                             "default BENCH_suite.json; 'insights': the full "
                             "report or diff JSON)")
    parser.add_argument("--hotpath-output", default="BENCH_hotpath.json",
                        help="'bench': where to write the launch hot-path "
                             "microbench report")
    parser.add_argument("--baseline", default=None,
                        help="'bench': committed hot-path baseline JSON; "
                             "exit 1 if warm steady-state throughput "
                             "regresses >25%% against it. 'sample' (suite "
                             "mode): committed BENCH_sample baseline; exit 1 "
                             "unless prefetch strictly beats synchronous. "
                             "'shard' (suite mode): committed BENCH_shard "
                             "baseline; exit 1 unless capacity frontiers "
                             "reproduce exactly")
    args = parser.parse_args(argv)
    cache = False if args.no_cache else True

    if args.command == "golden":
        return _run_golden(args, cache)
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "insights":
        return _run_insights_cmd(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "sample":
        return _run_sample_cmd(args, cache)
    if args.command == "shard":
        return _run_shard_cmd(args, cache)
    if args.command == "memstats":
        return _print_memstats(args, cache)

    mark = GNNMark(scale=args.scale or "profile", seed=args.seed)

    if args.command == "table1":
        print(mark.render_table1())
        return 0
    if args.command == "profile":
        if args.workload:
            _print_profile(mark, _resolve_workload(args.workload),
                           args.epochs, strict=args.strict)
        else:
            _print_profile_suite(mark, args.epochs, args.strict, args.jobs,
                                 cache)
        if args.metrics or args.metrics_output:
            _dump_metrics(args.metrics_output)
        return 0
    if args.command == "memory":
        _print_memory(mark)
        return 0
    if args.command == "fig9":
        print(mark.render_scaling(mark.scaling_study(
            epochs=args.epochs, jobs=args.jobs, cache=cache)))
        return 0

    wanted = list(FIGURES) if args.command == "all" else [args.command]
    suite = mark.characterize_suite(epochs=args.epochs, jobs=args.jobs,
                                    cache=cache)
    for fig in wanted:
        print(getattr(mark, FIGURES[fig])(suite))
        print()
    if args.command == "all":
        print(mark.render_table1())
        print()
        print(mark.render_scaling(mark.scaling_study(
            epochs=args.epochs, jobs=args.jobs, cache=cache)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
