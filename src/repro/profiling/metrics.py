"""Unified metrics registry: counters, gauges and histograms in one place.

The repo accumulated ad-hoc statistics as it grew — ``DeviceStats`` fields,
analysis-cache hit/miss counters, profile-cache hits, executor task
latencies, divergence and stall tallies.  This module absorbs them behind a
single process-wide :class:`MetricsRegistry` with Prometheus-style naming
and label semantics, snapshot/delta support, a deterministic canonical-JSON
export with a SHA-256 digest (the same discipline as golden streams and
traces — stable whenever the collected quantities live on the simulated
clock), and a Prometheus text-format exposition for scraping tools.

Design rule: the registry is **pull-model**.  Nothing on the kernel-launch
fast path ever touches it; instead, ``collect_*`` helpers read the existing
cheap counters (device stats, cache hit tallies, memory-pool aggregates)
into the registry at snapshot time.  The only push-style instrumentation is
per-*task* (executor wall latencies), which is orders of magnitude off the
per-launch path.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from ..canonical import canonical_digest, canonical_json

#: default latency buckets (seconds) — spans ms-scale cache hits to
#: minute-scale cold suite profiles
DEFAULT_BUCKETS = (0.005, 0.02, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0)


def _label_key(labels: Mapping[str, str]) -> str:
    """Canonical Prometheus-style series key: ``{a="x",b="y"}`` or ``""``."""
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down (set to the latest observation)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(sorted(float(b) for b in buckets))
        self.counts = [0] * (len(self.bounds) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> list[int]:
        """Cumulative counts per bound (Prometheus ``le`` buckets, +Inf last)."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def per_bucket(self) -> list[int]:
        """Non-cumulative count per bucket (+Inf last) — the view deltas
        subtract, since per-bucket shifts localize a latency regression the
        way a cumulative diff can't."""
        return list(self.counts)


_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Named, labelled metric series with snapshot/delta and export."""

    def __init__(self) -> None:
        #: name -> (type name, help text)
        self._meta: dict[str, tuple[str, str]] = {}
        #: name -> {label key -> metric instance}
        self._series: dict[str, dict[str, object]] = {}

    # -- registration --------------------------------------------------------
    def _get(self, kind: str, name: str, help: str,
             labels: Mapping[str, str], **kwargs):
        meta = self._meta.get(name)
        if meta is None:
            self._meta[name] = (kind, help)
            self._series[name] = {}
        elif meta[0] != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {meta[0]}"
            )
        elif help and not meta[1]:
            self._meta[name] = (kind, help)
        key = _label_key(labels)
        series = self._series[name]
        metric = series.get(key)
        if metric is None:
            metric = series[key] = _TYPES[kind](**kwargs)
        return metric

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get("counter", name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get("gauge", name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        return self._get("histogram", name, help, labels, buckets=buckets)

    def clear(self) -> None:
        self._meta.clear()
        self._series.clear()

    # -- snapshot / delta ----------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data view of every series; safe to hold across mutations."""
        out: dict = {}
        for name in sorted(self._series):
            kind, help = self._meta[name]
            series_out = {}
            for key in sorted(self._series[name]):
                metric = self._series[name][key]
                if kind == "histogram":
                    les = [_le(b) for b in (*metric.bounds, float("inf"))]
                    series_out[key] = {
                        "buckets": dict(zip(les, metric.cumulative())),
                        "bucket_counts": dict(zip(les, metric.per_bucket())),
                        "sum": metric.sum,
                        "count": metric.count,
                    }
                else:
                    series_out[key] = metric.value
            out[name] = {"type": kind, "help": help, "series": series_out}
        return out

    def delta(self, previous: dict) -> dict:
        """Change since an earlier :meth:`snapshot`.

        Counters and histograms subtract (new series count from zero);
        gauges report their current value — a delta of a level is a level.
        Histogram deltas are first-class: alongside the cumulative
        ``buckets`` diff they carry ``bucket_counts`` (per-bucket count
        shifts) and the ``sum``/``count`` deltas, so two serving-latency
        runs can be compared bucket by bucket.  Snapshots taken before
        ``bucket_counts`` existed decumulate on the fly.
        """
        current = self.snapshot()
        out: dict = {}
        for name, entry in current.items():
            prev_entry = previous.get(name, {"series": {}})
            series_out = {}
            for key, value in entry["series"].items():
                prev = prev_entry["series"].get(key)
                if entry["type"] == "gauge" or prev is None:
                    series_out[key] = value
                elif entry["type"] == "counter":
                    series_out[key] = value - prev
                else:
                    cur_counts = (value.get("bucket_counts")
                                  or _decumulate(value["buckets"]))
                    prev_counts = (prev.get("bucket_counts")
                                   or _decumulate(prev["buckets"]))
                    series_out[key] = {
                        "buckets": {
                            le: cum - prev["buckets"].get(le, 0)
                            for le, cum in value["buckets"].items()
                        },
                        "bucket_counts": {
                            le: c - prev_counts.get(le, 0)
                            for le, c in cur_counts.items()
                        },
                        "sum": value["sum"] - prev["sum"],
                        "count": value["count"] - prev["count"],
                    }
            out[name] = {"type": entry["type"], "help": entry["help"],
                         "series": series_out}
        return out

    # -- export --------------------------------------------------------------
    def to_json(self, snapshot: Optional[dict] = None) -> str:
        """Canonical JSON (sorted keys, tight separators, trailing newline)."""
        return canonical_json(
            self.snapshot() if snapshot is None else snapshot, newline=True)

    def digest(self, snapshot: Optional[dict] = None) -> str:
        """SHA-256 of the canonical JSON export."""
        return canonical_digest(
            self.snapshot() if snapshot is None else snapshot, newline=True)

    def to_prometheus(self, snapshot: Optional[dict] = None) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        payload = self.snapshot() if snapshot is None else snapshot
        lines: list[str] = []
        for name, entry in payload.items():
            if entry["help"]:
                lines.append(f"# HELP {name} {entry['help']}")
            lines.append(f"# TYPE {name} {entry['type']}")
            for key, value in entry["series"].items():
                if entry["type"] == "histogram":
                    for le, cum in value["buckets"].items():
                        lines.append(
                            f"{name}_bucket{_merge_label(key, 'le', le)} {cum}"
                        )
                    lines.append(f"{name}_sum{key} {_num(value['sum'])}")
                    lines.append(f"{name}_count{key} {value['count']}")
                else:
                    lines.append(f"{name}{key} {_num(value)}")
        return "\n".join(lines) + "\n"


def _le(bound: float) -> str:
    if bound == float("inf"):
        return "+Inf"
    return _num(bound)


def _decumulate(buckets: Mapping[str, float]) -> dict[str, float]:
    """Per-bucket counts from Prometheus cumulative ``le`` buckets.

    Fallback for snapshots taken before ``bucket_counts`` existed: order the
    ``le`` keys numerically (``+Inf`` last) and difference the running sums.
    """
    def bound(le: str) -> float:
        return float("inf") if le == "+Inf" else float(le)

    out: dict[str, float] = {}
    running = 0.0
    for le in sorted(buckets, key=bound):
        out[le] = buckets[le] - running
        running = buckets[le]
    return out


def _num(value: float) -> str:
    """Render ints without a trailing ``.0`` — canonical and scrape-friendly."""
    f = float(value)
    return str(int(f)) if f.is_integer() else repr(f)


def _merge_label(key: str, extra_name: str, extra_value: str) -> str:
    extra = f'{extra_name}="{extra_value}"'
    if not key:
        return "{" + extra + "}"
    return key[:-1] + "," + extra + "}"


# -- the process-wide registry -------------------------------------------------
REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    return REGISTRY


def reset() -> None:
    """Drop every series (used between independent measurement runs)."""
    REGISTRY.clear()


# -- collectors: pull existing ad-hoc stats into the registry ------------------
def collect_device(device, registry: Optional[MetricsRegistry] = None) -> None:
    """Absorb one simulated device's ``DeviceStats``, plus its memory pool
    once the pool has seen an allocation (an unmeasured pool reports no
    gauges rather than zeros)."""
    reg = registry if registry is not None else REGISTRY
    dev = str(device.device_id)
    stats = device.stats
    g = reg.gauge
    g("repro_device_clock_seconds",
      "Simulated device clock", device=dev).set(device.clock_s)
    g("repro_device_host_clock_seconds",
      "Simulated host enqueue clock", device=dev).set(device.host_clock_s)
    g("repro_device_kernel_launches_total",
      "Kernel launches", device=dev).set(stats.kernel_count)
    g("repro_device_kernel_seconds_total",
      "Simulated kernel time", device=dev).set(stats.kernel_time_s)
    g("repro_device_launch_overhead_seconds_total",
      "Launch overhead", device=dev).set(stats.launch_overhead_s)
    g("repro_device_fp32_flops_total", "Floating-point ops",
      device=dev).set(stats.fp32_flops)
    g("repro_device_int32_iops_total", "Integer ops",
      device=dev).set(stats.int32_iops)
    g("repro_device_transfers_total", "Host<->device copies",
      device=dev).set(stats.transfer_count)
    g("repro_device_h2d_bytes_total", "Host-to-device bytes",
      device=dev).set(stats.h2d_bytes)
    g("repro_device_d2h_bytes_total", "Device-to-host bytes",
      device=dev).set(stats.d2h_bytes)
    g("repro_device_transfer_seconds_total", "Transfer time",
      device=dev).set(stats.transfer_time_s)
    g("repro_analysis_cache_hits_total", "Launch-analysis cache hits",
      device=dev).set(stats.analysis_hits)
    g("repro_analysis_cache_misses_total", "Launch-analysis cache misses",
      device=dev).set(stats.analysis_misses)
    if device.memory.alloc_count:
        collect_memory(device, registry=reg)


def collect_memory(device, registry: Optional[MetricsRegistry] = None) -> None:
    """Absorb one device's :class:`~repro.gpu.memory.MemoryPool` aggregates."""
    reg = registry if registry is not None else REGISTRY
    pool = device.memory
    dev = str(device.device_id)
    g = reg.gauge
    g("repro_memory_live_bytes", "Live HBM bytes", device=dev).set(
        pool.live_bytes)
    g("repro_memory_reserved_bytes", "Reserved HBM footprint",
      device=dev).set(pool.reserved_bytes)
    g("repro_memory_peak_live_bytes", "Peak live HBM bytes",
      device=dev).set(pool.peak_live_bytes)
    g("repro_memory_peak_reserved_bytes", "Peak reserved HBM footprint",
      device=dev).set(pool.peak_reserved_bytes)
    g("repro_memory_capacity_bytes", "Configured HBM capacity",
      device=dev).set(pool.capacity_bytes)
    g("repro_memory_alloc_total", "Block allocations",
      device=dev).set(pool.alloc_count)
    g("repro_memory_free_total", "Block frees", device=dev).set(
        pool.free_count)
    g("repro_memory_segment_allocs_total", "New device reservations",
      device=dev).set(pool.segment_allocs)
    g("repro_memory_bucket_reuse_total", "Cached-block reuses",
      device=dev).set(pool.bucket_reuse_count)
    g("repro_memory_fragmentation_ratio", "Cached fraction of reserved",
      device=dev).set(pool.fragmentation())
    g("repro_memory_oom_events_total", "Capacity violations",
      device=dev).set(len(pool.oom_events))
    for phase, peak in sorted(pool.phase_watermarks.items()):
        g("repro_memory_phase_peak_bytes", "Per-phase peak live bytes",
          device=dev, phase=phase).set(peak)


def collect_profile_cache(cache,
                          registry: Optional[MetricsRegistry] = None) -> None:
    """Absorb a :class:`~repro.core.cache.ProfileCache`'s tallies."""
    reg = registry if registry is not None else REGISTRY
    reg.gauge("repro_profile_cache_hits_total",
              "Persistent profile-cache hits").set(cache.hits)
    reg.gauge("repro_profile_cache_misses_total",
              "Persistent profile-cache misses").set(cache.misses)
    reg.gauge("repro_profile_cache_stores_total",
              "Persistent profile-cache stores").set(cache.stores)


def collect_profile(profile,
                    registry: Optional[MetricsRegistry] = None) -> None:
    """Absorb a ``WorkloadProfile``'s stall, cache and divergence tallies."""
    reg = registry if registry is not None else REGISTRY
    wl = profile.key
    for stall, share in profile.stalls().items():
        reg.gauge("repro_stall_share", "Stall-cycle share by reason",
                  workload=wl, stall=stall).set(share)
    for name, value in profile.cache().items():
        reg.gauge("repro_cache_metric",
                  "L1/L2 hit rates and divergence measurements",
                  workload=wl, metric=name).set(value)
    reg.gauge("repro_transfer_sparsity_ratio",
              "Mean zero fraction of H2D traffic",
              workload=wl).set(profile.transfer_sparsity())
    reg.gauge("repro_analysis_cache_hit_ratio",
              "Launch-analysis hit ratio for the profiled run",
              workload=wl).set(
        profile.analysis_hits
        / max(1, profile.analysis_hits + profile.analysis_misses))


#: report kind -> (label -> report field, gauges).  A gauge is (name, help,
#: report field, entry label): a dotted field reads a nested value, and an
#: entry label makes one series per entry of a dict field.  Every series
#: carries the kind's labels, so sweeps (latency vs QPS, prefetch depth,
#: capacity frontier) land as distinct label sets in one registry.
REPORT_GAUGES = {
    # repro.serve.serve_report
    "serve": ({"workload": "workload", "arrival": "arrival",
               "batch_max": "batch_max"}, (
        ("repro_serve_latency_us", "End-to-end request latency (us)",
         "latency_us", "quantile"),
        ("repro_serve_wait_us", "Queue-wait component of request latency "
         "(us)", "wait_us", "quantile"),
        ("repro_serve_compute_us", "Compute component of request latency "
         "(us)", "compute_us", "quantile"),
        ("repro_serve_throughput_rps", "Served requests per simulated "
         "second", "throughput_rps", None),
        ("repro_serve_requests_total", "Requests served", "completed", None),
        ("repro_serve_batches_total", "Batches executed", "batches", None),
        ("repro_serve_captured_plans", "Distinct batch sizes captured",
         "captured_plans", None),
        ("repro_serve_replayed_batches_total", "Batches served by plan "
         "replay", "replayed_batches", None),
        ("repro_serve_peak_live_bytes", "Peak live HBM during serving",
         "peak_live_bytes", None),
        ("repro_serve_peak_reserved_bytes", "Peak reserved HBM during "
         "serving", "peak_reserved_bytes", None),
        ("repro_serve_batch_size_count", "Executed batches by size",
         "batch_size_hist", "size"),
    )),
    # repro.train.loader.sample_report
    "loader": ({"workload": "workload", "prefetch_depth": "prefetch_depth"}, (
        ("repro_loader_batches_total", "Mini-batches produced by the "
         "sampler", "batches", None),
        ("repro_loader_edges_sampled_total", "Edges drawn across all "
         "blocks", "edges_sampled", None),
        ("repro_loader_sample_cost_seconds", "Simulated host sampling time",
         "sample_cost_s", None),
        ("repro_loader_stall_seconds", "Device time spent waiting on the "
         "sampler", "loader_stall_s", None),
        ("repro_loader_stall_fraction", "loader_stall_s over the simulated "
         "training wall clock", "loader_stall_fraction", None),
        ("repro_loader_queue_occupancy_mean", "Time-averaged ready-batches "
         "in the prefetch queue", "queue_occupancy_mean", None),
        ("repro_loader_queue_occupancy_max", "Peak ready-batches in the "
         "prefetch queue", "queue_occupancy_max", None),
        ("repro_loader_epochs_per_sim_second", "Sampled-training throughput "
         "(simulated)", "epochs_per_sim_s", None),
        ("repro_loader_peak_live_bytes", "Peak live HBM during sampled "
         "training", "peak_live_bytes", None),
    )),
    # repro.train.sharded.shard_report
    "shard": ({"workload": "workload", "config": "name", "parts": "parts",
               "offload": "offload"}, (
        ("repro_shard_edge_cut_total", "Edges crossing partition "
         "boundaries", "partition.edge_cut", None),
        ("repro_shard_cut_fraction", "Cut edges over total edges",
         "partition.cut_fraction", None),
        ("repro_shard_replication_factor", "Stored rows (owned + halo) over "
         "graph nodes", "partition.replication_factor", None),
        ("repro_shard_halo_bytes_total", "Bytes moved by halo exchanges "
         "across all epochs", "halo_bytes", None),
        ("repro_shard_halo_seconds", "Simulated time inside halo exchanges",
         "halo_time_s", None),
        ("repro_shard_allreduce_bytes_total", "Gradient payload bytes "
         "allreduced across all epochs", "allreduce_bytes", None),
        ("repro_shard_h2d_bytes_total", "Host-to-device staging bytes",
         "h2d_bytes", None),
        ("repro_shard_d2h_bytes_total", "Device-to-host staging bytes",
         "d2h_bytes", None),
        ("repro_shard_peak_reserved_bytes", "Heaviest device's peak "
         "reserved HBM", "peak_reserved_bytes", None),
        ("repro_shard_oom_events_total", "HBM capacity violations "
         "(non-strict)", "oom_events", None),
        ("repro_shard_epochs_per_sim_second", "Sharded-training throughput "
         "(simulated)", "epochs_per_sim_s", None),
    )),
}


def _label_value(value) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


def collect_report(kind: str, report: dict,
                   registry: Optional[MetricsRegistry] = None) -> None:
    """Absorb one report of ``kind`` as the gauges :data:`REPORT_GAUGES`
    lists for it."""
    reg = registry if registry is not None else REGISTRY
    label_fields, gauges = REPORT_GAUGES[kind]
    labels = {label: _label_value(report[f])
              for label, f in label_fields.items()}
    for name, help_text, path, entry_label in gauges:
        value = report
        for part in path.split("."):
            value = value[part]
        if entry_label is None:
            reg.gauge(name, help_text, **labels).set(value)
            continue
        for entry, entry_value in value.items():
            reg.gauge(name, help_text, **{entry_label: entry},
                      **labels).set(entry_value)


def collect_serve(report: dict,
                  registry: Optional[MetricsRegistry] = None) -> None:
    """Absorb one serving report (:func:`repro.serve.serve_report`)."""
    collect_report("serve", report, registry)


def collect_loader(report: dict,
                   registry: Optional[MetricsRegistry] = None) -> None:
    """Absorb one sampled-training report (:mod:`repro.train.loader`)."""
    collect_report("loader", report, registry)


def collect_shard(report: dict,
                  registry: Optional[MetricsRegistry] = None) -> None:
    """Absorb one sharded-training report (:mod:`repro.train.sharded`)."""
    collect_report("shard", report, registry)


def observe_task(kind: str, seconds: float, cached: bool,
                 registry: Optional[MetricsRegistry] = None) -> None:
    """Record one executor task completion (wall latency + cache outcome)."""
    reg = registry if registry is not None else REGISTRY
    reg.histogram("repro_task_wall_seconds",
                  "Executor task wall latency", kind=kind).observe(seconds)
    reg.counter("repro_task_total", "Executor tasks run", kind=kind,
                cached=str(cached).lower()).inc()
