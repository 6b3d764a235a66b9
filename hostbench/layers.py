"""Host-clock self time of each ``repro`` layer, measured from outside.

:class:`LayerClock` wraps the public entry points of every ``repro`` module
(the catalogue below) with ``perf_counter_ns`` accumulators on a span stack,
without editing the program: each entry point is replaced on its module or
class, and so is every alias of it that another module imported by name
(``from .base import launch`` binds ``launch`` in each op module).
:meth:`LayerClock.uninstall` puts every original attribute back.

A layer's *self time* is the host time spent inside its wrapped entry points
minus the time spent in nested wrapped calls, so the self times of all
layers add up exactly to the time spent under top-level wrapped calls; what
a pass spends outside every wrapper is reported as ``unattributed_s``.
"""

from __future__ import annotations

import contextlib
import importlib
import pkgutil
import sys
import time
import types
import weakref

#: (layer, module, attribute path) of every wrapped entry point.  Families
#: that grow with the program are added by :func:`_discovered`.
ENTRY_POINTS = (
    ("tensor.forward", "repro.tensor.autograd", "Function.apply"),
    ("tensor.autograd", "repro.tensor.autograd", "backward"),
    ("tensor.optim", "repro.tensor.optim", "Optimizer.step"),
    ("tensor.launch", "repro.tensor.ops.base", "launch"),
    ("tensor.row_access", "repro.tensor.ops.base", "irregular_row_access"),
    ("gpu.device", "repro.gpu.device", "SimulatedGPU.launch"),
    ("gpu.device", "repro.gpu.device", "SimulatedGPU.launch_fast"),
    ("gpu.device", "repro.gpu.device", "SimulatedGPU.launch_analyzed"),
    ("gpu.device", "repro.gpu.device", "SimulatedGPU.replay"),
    ("gpu.analysis", "repro.gpu.analysis_cache", "AnalysisCache.analyze"),
    ("gpu.analysis", "repro.gpu.analysis_cache", "compute"),
    ("gpu.analysis", "repro.gpu.analysis_cache", "stats"),
    ("gpu.caches", "repro.gpu.caches", "analyze"),
    ("gpu.timing", "repro.gpu.timing", "analyze"),
    ("gpu.stalls", "repro.gpu.stalls", "attribute"),
    ("gpu.divergence", "repro.gpu.divergence", "measure"),
    ("gpu.capture.replay", "repro.gpu.graph_capture", "replay_epoch"),
    ("gpu.capture.record", "repro.gpu.graph_capture",
     "CaptureReplayController.step"),
    ("gpu.memory", "repro.gpu.memory", "MemoryPool.alloc"),
    ("gpu.memory", "repro.gpu.memory", "MemoryPool.free"),
    ("gpu.memory", "repro.gpu.memory", "DeviceMemoryTracker.register"),
    ("gpu.transfer", "repro.gpu.device", "SimulatedGPU.h2d"),
    ("gpu.transfer", "repro.gpu.device", "SimulatedGPU.d2h"),
    ("gpu.transfer", "repro.gpu.device", "SimulatedGPU.transfer_bytes"),
    ("gpu.multigpu", "repro.gpu.multigpu", "MultiGPUSystem.allreduce"),
    ("gpu.multigpu", "repro.gpu.multigpu", "MultiGPUSystem.halo_exchange"),
    ("profiling.listeners", "repro.profiling.nvprof",
     "KernelProfiler.on_launch"),
    ("profiling.listeners", "repro.profiling.nvbit",
     "DivergenceInstrument.on_launch"),
    ("profiling.listeners", "repro.profiling.sparsity",
     "SparsityTracker.on_transfer"),
    ("profiling.listeners", "repro.profiling.trace", "Tracer.on_launch"),
    ("profiling.listeners", "repro.profiling.trace", "Tracer.on_transfer"),
    ("profiling.trace", "repro.profiling.trace", "Tracer.end_epoch"),
    ("profiling.trace", "repro.profiling.trace", "Timeline.summary"),
    ("graph.sampling", "repro.graph.sampling", "uniform_neighbor_block"),
    ("graph.sampling", "repro.graph.sampling", "pinsage_neighbors"),
    ("graph.sampling", "repro.graph.sampling", "random_walks"),
    ("graph.partition", "repro.graph.partition", "partition_graph"),
    ("train.trainer", "repro.train.trainer", "Trainer.run"),
    ("train.loader", "repro.train.loader", "NeighborLoader.sample_blocks"),
    ("train.loader", "repro.train.loader", "PrefetchPipeline.run_epoch"),
    ("train.loader", "repro.train.loader", "sample_run"),
    ("train.sharded", "repro.train.sharded", "shard_run"),
    ("serve.arrivals", "repro.serve.arrivals", "generate_requests"),
    ("serve.queueing", "repro.serve.queueing", "run_queue"),
    ("serve.server", "repro.serve.server", "BatchRunner.run_batch"),
    ("serve.server", "repro.serve.server", "serve_run"),
    ("models", "repro.core.registry", "WorkloadSpec.build"),
    ("core", "repro.core.characterize", "profile_workload"),
)

#: every layer, in report order
LAYERS = (
    "tensor.forward", "tensor.backward", "tensor.autograd", "tensor.optim",
    "tensor.launch", "tensor.row_access", "gpu.device", "gpu.analysis",
    "gpu.caches", "gpu.timing", "gpu.stalls", "gpu.divergence",
    "gpu.capture.replay", "gpu.capture.record", "gpu.memory", "gpu.transfer",
    "gpu.multigpu", "profiling.listeners", "profiling.trace",
    "profiling.metrics", "profiling.report", "graph.sampling",
    "graph.partition", "train.trainer", "train.loader", "train.sharded",
    "serve.arrivals", "serve.queueing", "serve.server", "datasets", "models",
    "core",
)

#: the self-time metric of each layer
SELF_METRIC = {layer: f"{layer}.self_s" for layer in LAYERS}
SELF_METRIC.update({
    "gpu.analysis": "gpu.analysis.lookup_self_s",
    "gpu.capture.replay": "gpu.capture.replay_self_s",
    "gpu.capture.record": "gpu.capture.record_self_s",
})

#: (name, unit, better) of every per-layer metric, in report order
METRICS = (
    ("tensor.forward.calls", "count", "lower"),
    ("tensor.forward.self_s", "s", "lower"),
    ("tensor.backward.calls", "count", "lower"),
    ("tensor.backward.self_s", "s", "lower"),
    ("tensor.autograd.self_s", "s", "lower"),
    ("tensor.optim.self_s", "s", "lower"),
    ("tensor.launch.calls", "count", "lower"),
    ("tensor.launch.self_s", "s", "lower"),
    ("tensor.launch.memo_hit_rate", "ratio", "higher"),
    ("tensor.row_access.calls", "count", "lower"),
    ("tensor.row_access.hit_rate", "ratio", "higher"),
    ("tensor.row_access.self_s", "s", "lower"),
    ("gpu.device.launches", "count", "lower"),
    ("gpu.device.self_s", "s", "lower"),
    ("gpu.analysis.lookups", "count", "lower"),
    ("gpu.analysis.hit_rate", "ratio", "higher"),
    ("gpu.analysis.lookup_self_s", "s", "lower"),
    ("gpu.analysis.cold_calls", "count", "lower"),
    ("gpu.caches.self_s", "s", "lower"),
    ("gpu.timing.self_s", "s", "lower"),
    ("gpu.stalls.self_s", "s", "lower"),
    ("gpu.divergence.self_s", "s", "lower"),
    ("gpu.capture.replayed_epochs", "count", "higher"),
    ("gpu.capture.replay_self_s", "s", "lower"),
    ("gpu.capture.record_self_s", "s", "lower"),
    ("gpu.capture.fallbacks", "count", "lower"),
    ("gpu.memory.events", "count", "lower"),
    ("gpu.memory.self_s", "s", "lower"),
    ("gpu.transfer.calls", "count", "lower"),
    ("gpu.transfer.bytes", "bytes", "lower"),
    ("gpu.transfer.self_s", "s", "lower"),
    ("gpu.multigpu.self_s", "s", "lower"),
    ("profiling.listeners.calls", "count", "lower"),
    ("profiling.listeners.self_s", "s", "lower"),
    ("profiling.trace.self_s", "s", "lower"),
    ("profiling.metrics.self_s", "s", "lower"),
    ("profiling.report.self_s", "s", "lower"),
    ("graph.sampling.calls", "count", "lower"),
    ("graph.sampling.self_s", "s", "lower"),
    ("graph.partition.self_s", "s", "lower"),
    ("train.trainer.self_s", "s", "lower"),
    ("train.loader.batches", "count", "lower"),
    ("train.loader.self_s", "s", "lower"),
    ("train.sharded.self_s", "s", "lower"),
    ("serve.requests", "count", "higher"),
    ("serve.batches", "count", "lower"),
    ("serve.replay_share", "ratio", "higher"),
    ("serve.arrivals.self_s", "s", "lower"),
    ("serve.queueing.self_s", "s", "lower"),
    ("serve.server.self_s", "s", "lower"),
    ("datasets.self_s", "s", "lower"),
    ("models.self_s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
    ("traced_pass_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)

#: spans shorter than this are not exported (a child never outlasts its
#: parent, so dropping short spans keeps the exported nesting intact)
MIN_SPAN_NS = 20_000

#: ratio counters fed by entry-point hooks
COUNTERS = ("launch_memo_hits", "device_nested_replays", "row_access_hits",
            "analysis_hits", "serve_replays", "capture_fallbacks",
            "transfer_bytes", "serve_requests")


def _discovered() -> list[tuple[str, str, str]]:
    """Entry-point families that grow with the program: every autograd
    ``Function`` subclass's ``backward``, every metrics ``collect_*``, every
    ``GNNMark.render_*``, every dataset ``load_*``/``synthetic_*`` and every
    workload class's ``train_epoch``."""
    found = []
    autograd = importlib.import_module("repro.tensor.autograd")
    importlib.import_module("repro.tensor.ops")
    todo, seen = [autograd.Function], set()
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.add(sub)
                todo.append(sub)
                if "backward" in vars(sub):
                    found.append(("tensor.backward", sub.__module__,
                                  f"{sub.__qualname__}.backward"))
    metrics = importlib.import_module("repro.profiling.metrics")
    found += [("profiling.metrics", metrics.__name__, name)
              for name, value in sorted(vars(metrics).items())
              if name.startswith("collect_")
              and isinstance(value, types.FunctionType)]
    suite = importlib.import_module("repro.core.suite")
    found += [("profiling.report", suite.__name__, f"GNNMark.{name}")
              for name in sorted(vars(suite.GNNMark))
              if name.startswith("render_")]
    for package, layer in (("repro.datasets", "datasets"),
                           ("repro.models", "models")):
        pkg = importlib.import_module(package)
        for info in pkgutil.iter_modules(pkg.__path__):
            mod = importlib.import_module(f"{package}.{info.name}")
            for name, value in sorted(vars(mod).items()):
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                if (layer == "datasets"
                        and isinstance(value, types.FunctionType)
                        and name.startswith(("load_", "synthetic_"))):
                    found.append((layer, mod.__name__, name))
                elif (layer == "models" and isinstance(value, type)
                      and "train_epoch" in vars(value)):
                    found.append((layer, mod.__name__,
                                  f"{value.__qualname__}.train_epoch"))
    return found


def _resolve(module: str, path: str):
    """(owner, attribute, raw value) of one entry point, or None if absent.

    Class attributes resolve to the class that defines them, so a method
    inherited by many classes is wrapped once.
    """
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return klass, attr, vars(klass)[attr]
        return None
    raw = getattr(owner, attr, None)
    return None if raw is None else (owner, attr, raw)


def current(owner, attr: str):
    """The attribute as stored on ``owner`` (descriptors not unwrapped)."""
    if isinstance(owner, type):
        return vars(owner)[attr]
    return getattr(owner, attr)


class LayerClock:
    """Span-stack self-time accumulators around every catalogued entry point.

    Counts are kept per *entry point* (``calls``, ``self_ns``) and folded
    into layers by :class:`Totals`.  A few entry points also feed ratio
    counters through hooks that read the call's parent, arguments or result.
    """

    def __init__(self) -> None:
        #: (layer, "module:path") per entry id
        self.entries: list[tuple[str, str]] = []
        self.missing: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        #: ns spent under top-level wrapped calls (== sum of self_ns)
        self.top_ns = [0]
        self.counters = dict.fromkeys(COUNTERS, 0)
        #: (entry id, start ns, duration ns, depth) while recording spans
        self.spans: list | None = None
        self._ids: list[int] = []
        self._child: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._eid: dict[str, int] = {}

    # -- install / uninstall ------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("layer clock already installed")
        # Import every repro module before patching anything: a module
        # first imported while patched would bind a wrapper under an alias
        # (``from .x import f``) that uninstall cannot see.
        repro = importlib.import_module("repro")
        for info in pkgutil.walk_packages(repro.__path__, "repro.",
                                          onerror=lambda name: None):
            try:
                importlib.import_module(info.name)
            except ImportError:  # a module needing an absent optional dep
                continue
        self.missing = []
        resolved = []
        for layer, module, path in ENTRY_POINTS + tuple(_discovered()):
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module}:{path}")
            else:
                resolved.append((layer, f"{module}:{path}", *found))
        replacements: dict[int, tuple[object, object]] = {}
        done: set[tuple[int, str]] = set()
        for layer, key, owner, attr, raw in resolved:
            if (id(owner), attr) in done:
                continue
            done.add((id(owner), attr))
            eid = self._eid.setdefault(key, len(self.entries))
            if eid == len(self.entries):
                self.entries.append((layer, key))
                self.calls.append(0)
                self.self_ns.append(0)
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(self._wrap(eid, raw.__func__))
            else:
                new = self._wrap(eid, raw)
                replacements[id(raw)] = (raw, new)
            setattr(owner, attr, new)
            self._patched.append((owner, attr, raw))
        # aliases: the same function object bound under another name
        for name, mod in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def patched(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) of every replaced attribute."""
        return list(self._patched)

    # -- wrappers -------------------------------------------------------------
    def _hooks(self, eid: int):
        """(pre, post) hooks feeding :data:`COUNTERS`, or None."""
        path = self.entries[eid][1].split(":", 1)[1]
        counters = self.counters
        eid_of = self._eid.get
        if path == "SimulatedGPU.replay":
            def post(parent, args, result, token):
                if parent == eid_of("repro.tensor.ops.base:launch"):
                    counters["launch_memo_hits"] += 1
                elif parent == eid_of(
                        "repro.gpu.device:SimulatedGPU.launch_fast"):
                    counters["device_nested_replays"] += 1
            return None, post
        if path == "irregular_row_access":
            # a hit hands back a pattern object returned before (patterns
            # compare by value and cannot be hashed, so track identities)
            seen = weakref.WeakValueDictionary()

            def post(parent, args, result, token):
                if seen.get(id(result)) is result:
                    counters["row_access_hits"] += 1
                else:
                    seen[id(result)] = result
            return None, post
        if path == "AnalysisCache.analyze":
            def post(parent, args, result, token):
                if result[1]:
                    counters["analysis_hits"] += 1
            return None, post
        if path == "replay_epoch":
            def post(parent, args, result, token):
                if parent == eid_of(
                        "repro.serve.server:BatchRunner.run_batch"):
                    counters["serve_replays"] += 1
            return None, post
        if path == "CaptureReplayController.step":
            def pre(args):
                return getattr(args[0], "state", None)

            def post(parent, args, result, token):
                if (getattr(args[0], "state", None) == "fallback"
                        and token != "fallback"):
                    counters["capture_fallbacks"] += 1
            return pre, post
        if path in ("SimulatedGPU.h2d", "SimulatedGPU.d2h",
                    "SimulatedGPU.transfer_bytes"):
            def post(parent, args, result, token):
                counters["transfer_bytes"] += int(result.nbytes)
            return None, post
        if path == "generate_requests":
            def post(parent, args, result, token):
                counters["serve_requests"] += len(result)
            return None, post
        return None

    def _wrap(self, eid: int, fn):
        ids, child, top = self._ids, self._child, self.top_ns
        calls, self_ns = self.calls, self.self_ns
        clock = time.perf_counter_ns
        owner = self  # span recording reads the live ``spans`` attribute
        hooks = self._hooks(eid)

        if hooks is None:
            def wrapper(*args, **kwargs):
                ids.append(eid)
                child.append(0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    ids.pop()
                    self_ns[eid] += dt - child.pop()
                    calls[eid] += 1
                    if child:
                        child[-1] += dt
                    else:
                        top[0] += dt
                    spans = owner.spans
                    if spans is not None and dt >= MIN_SPAN_NS:
                        spans.append((eid, t0, dt, len(ids)))
        else:
            pre, post = hooks

            def wrapper(*args, **kwargs):
                parent = ids[-1] if ids else -1
                token = pre(args) if pre is not None else None
                ids.append(eid)
                child.append(0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    ids.pop()
                    self_ns[eid] += dt - child.pop()
                    calls[eid] += 1
                    if child:
                        child[-1] += dt
                    else:
                        top[0] += dt
                    spans = owner.spans
                    if spans is not None and dt >= MIN_SPAN_NS:
                        spans.append((eid, t0, dt, len(ids)))
                post(parent, args, result, token)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- accounting -----------------------------------------------------------
    def take(self) -> "Totals":
        """Totals since the last call, zeroing the accumulators in place."""
        totals = Totals(self, list(self.calls), list(self.self_ns),
                        self.top_ns[0], dict(self.counters))
        for i in range(len(self.calls)):
            self.calls[i] = 0
            self.self_ns[i] = 0
        self.top_ns[0] = 0
        for name in COUNTERS:
            self.counters[name] = 0
        return totals

    @contextlib.contextmanager
    def recording(self):
        """Keep the spans of the wrapped calls made inside the block."""
        spans: list = []
        self.spans = spans
        try:
            yield spans
        finally:
            self.spans = None

    def chrome(self, spans: list, start_ns: int, pass_ns: int,
               label: str) -> dict:
        """Chrome JSON of recorded spans on a wall-clock "host" process.

        Every span goes on one thread, so the viewer nests layers by time
        containment; a root span covers the whole pass.
        """
        pid = 0
        events = [
            {"ph": "M", "pid": pid, "tid": "", "ts": 0, "name": "process_name",
             "args": {"name": "host (wall clock)"}},
            {"ph": "M", "pid": pid, "tid": "layers", "ts": 0,
             "name": "thread_name", "args": {"name": "layers"}},
            {"ph": "X", "name": label, "cat": "pass", "pid": pid,
             "tid": "layers", "ts": 0.0, "dur": pass_ns / 1e3,
             "args": {"depth": 0}},
        ]
        for eid, t0, dt, depth in sorted(spans, key=lambda s: (s[1], s[3])):
            layer, key = self.entries[eid]
            events.append({
                "ph": "X", "name": key.split(":", 1)[1], "cat": layer,
                "pid": pid, "tid": "layers", "ts": (t0 - start_ns) / 1e3,
                "dur": dt / 1e3, "args": {"entry": key, "depth": depth + 1},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"generator": "hostbench", "clock": "host"}}


class Totals:
    """Calls, self time and counters accumulated over traced passes."""

    def __init__(self, clock: LayerClock, calls: list[int],
                 self_ns: list[int], top_ns: int,
                 counters: dict[str, int]) -> None:
        self.clock = clock
        self.calls = calls
        self.self_ns = self_ns
        self.top_ns = top_ns
        self.counters = counters

    def __iadd__(self, other: "Totals") -> "Totals":
        self.calls = [a + b for a, b in zip(self.calls, other.calls)]
        self.self_ns = [a + b for a, b in zip(self.self_ns, other.self_ns)]
        self.top_ns += other.top_ns
        for name, value in other.counters.items():
            self.counters[name] += value
        return self

    def _calls(self, key: str) -> int:
        eid = self.clock._eid.get(key)
        return 0 if eid is None else self.calls[eid]

    def _by_layer(self, per_entry: list[int]) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for (layer, _), value in zip(self.clock.entries, per_entry):
            out[layer] += value
        return out

    def values(self, passes: int, pass_ns: int, untraced_pass_s: float,
               traced_pass_s: float) -> dict[str, float]:
        """Every :data:`METRICS` value per pass (ratios over all passes).

        ``pass_ns`` is the host time of the ``passes`` traced passes: the
        layer self times plus ``unattributed_s`` add up to it exactly.
        ``trace_overhead`` compares the traced and untraced pass medians.
        """
        n = max(1, passes)
        c = self.counters
        ns, calls = self._by_layer(self.self_ns), self._by_layer(self.calls)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        launches = self._calls("repro.tensor.ops.base:launch")
        lookups = self._calls("repro.gpu.analysis_cache:AnalysisCache.analyze")
        batches = self._calls("repro.serve.server:BatchRunner.run_batch")
        values = {SELF_METRIC[layer]: ns[layer] / 1e9 / n for layer in LAYERS}
        values.update({
            "tensor.forward.calls": calls["tensor.forward"] / n,
            "tensor.backward.calls": calls["tensor.backward"] / n,
            "tensor.launch.calls": launches / n,
            "tensor.launch.memo_hit_rate": ratio(c["launch_memo_hits"],
                                                 launches),
            "tensor.row_access.calls": calls["tensor.row_access"] / n,
            "tensor.row_access.hit_rate": ratio(c["row_access_hits"],
                                                calls["tensor.row_access"]),
            "gpu.device.launches":
                (calls["gpu.device"] - c["device_nested_replays"]) / n,
            "gpu.analysis.lookups": lookups / n,
            "gpu.analysis.hit_rate": ratio(c["analysis_hits"], lookups),
            "gpu.analysis.cold_calls":
                self._calls("repro.gpu.analysis_cache:compute") / n,
            "gpu.capture.replayed_epochs": calls["gpu.capture.replay"] / n,
            "gpu.capture.fallbacks": c["capture_fallbacks"] / n,
            "gpu.memory.events": calls["gpu.memory"] / n,
            "gpu.transfer.calls": calls["gpu.transfer"] / n,
            "gpu.transfer.bytes": c["transfer_bytes"] / n,
            "profiling.listeners.calls": calls["profiling.listeners"] / n,
            "graph.sampling.calls": calls["graph.sampling"] / n,
            "train.loader.batches": self._calls(
                "repro.train.loader:NeighborLoader.sample_blocks") / n,
            "serve.requests": c["serve_requests"] / n,
            "serve.batches": batches / n,
            "serve.replay_share": ratio(c["serve_replays"], batches),
            "unattributed_s": (pass_ns - self.top_ns) / 1e9 / n,
            "traced_pass_s": pass_ns / 1e9 / n,
            "trace_overhead": (ratio(traced_pass_s, untraced_pass_s) - 1.0
                               if untraced_pass_s else 0.0),
        })
        return {name: float(values[name]) for name, _, _ in METRICS}
