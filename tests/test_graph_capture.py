"""Differential replay suite: captured-and-replayed epochs must be
byte-identical to dispatched epochs.

The headline guarantee of :mod:`repro.gpu.graph_capture` is that replaying a
validated epoch plan is *indistinguishable* from dispatching the epoch — on
the kernel/transfer event stream, the final device clocks, the complete
``DeviceStats``, the kernel-timeline trace (memory counter samples included),
and the full memory report.  Every test here compares a steady-dispatch run
against a capture-replay run of the same workload and asserts equality, not
closeness.  Replays take the compiled path whether or not the device's
event log is open (a recorder or tracer observing); only a memory-counter
sink or pool tap re-issues pool events one by one.  Every export of kernel
time agrees across dispatch and replay, and across sampled, served and
sharded runs.
"""

import dataclasses

import pytest

from repro.core import executor, registry
from repro.core.characterize import measure_memory, profile_workload
from repro.gpu import SimulatedGPU, analysis_cache
from repro.gpu.graph_capture import (
    CaptureReplayController,
    replay_epoch,
    validate_events,
)
from repro.profiling import (KernelProfiler, LaunchTable, insights, metrics,
                             trace)
from repro.profiling.trace import trace_workload
from repro.serve import serve_run
from repro.tensor import manual_seed
from repro.testing.golden import StreamRecorder
from repro.testing.launch_sequences import make_launch, make_transfer
from repro.train.loader import sample_run
from repro.train.sharded import shard_run
from repro.train.trainer import Trainer

KEYS = list(registry.WORKLOAD_KEYS)

#: one traced run per mode beyond dispatch and capture-replay
MODE_RUNS = {
    "sample-ARGA": lambda: sample_run("ARGA", traced=True),
    "serve-PSAGE-MVL": lambda: serve_run("PSAGE-MVL", requests=64,
                                         traced=True),
    "shard-ARGA-P4": lambda: shard_run("ARGA-P4", traced=True),
    "shard-ARGA-OFFLOAD": lambda: shard_run("ARGA-OFFLOAD", traced=True),
}

# everything replay recomputes rather than records
EXACT_FIELDS = ("stream_digest", "launch_count", "transfer_count",
                "clock_s", "host_clock_s", "device_stats", "losses")


@pytest.fixture(scope="module")
def steady_baselines():
    """Dispatch-side fingerprints for the whole registry, per cache setting.

    ``analysis_hits``/``analysis_misses`` depend on whether the launch
    analysis cache is enabled, so the baseline is taken once for each
    setting and every capture run is compared against the matching one.
    """
    return {
        enabled: executor.suite("capture_fingerprint", KEYS, jobs=1,
                                cache=False, mode="steady",
                                analysis_cache_enabled=enabled)
        for enabled in (True, False)
    }


class TestDifferentialReplay:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("cache_enabled", [True, False])
    def test_replay_matches_dispatch(self, steady_baselines, jobs,
                                     cache_enabled):
        replayed = executor.suite("capture_fingerprint", KEYS, jobs=jobs,
                                  cache=False, mode="capture",
                                  analysis_cache_enabled=cache_enabled)
        assert sorted(replayed) == sorted(KEYS)
        for key in KEYS:
            steady, capture = steady_baselines[cache_enabled], replayed[key]
            for field in EXACT_FIELDS:
                assert steady[key][field] == capture[field], (key, field)
            # the run really replayed: warmup + capture + validate + 2 replays
            ctrl = capture["controller"]
            assert ctrl["state"] == "replay", (key, ctrl)
            assert ctrl["fallback_reason"] is None
            assert ctrl["replayed_epochs"] == 2
            # the stream recorder's open event log keeps replay compiled
            assert ctrl["compiled_replays"] == 2
            assert ctrl["event_replays"] == 0
            assert ctrl["plan_kernels"] > 0
            assert steady[key]["controller"]["state"] == "steady"
            assert steady[key]["controller"]["replayed_epochs"] == 0

    @pytest.mark.parametrize("key", KEYS)
    def test_trace_differential(self, key):
        # memory=True also exercises the replayed pool events and the
        # per-alloc/free memory counter samples on the trace timeline
        analysis_cache.clear()
        dispatched = trace_workload(key, epochs=5, memory=True, mode="steady")
        analysis_cache.clear()
        replayed = trace_workload(key, epochs=5, memory=True, mode="capture")
        assert len(dispatched) == len(replayed)
        assert dispatched.digest() == replayed.digest()

    @pytest.mark.parametrize("key", KEYS)
    def test_memory_report_differential(self, key):
        analysis_cache.clear()
        dispatched = measure_memory(key, epochs=5, mode="steady")
        analysis_cache.clear()
        replayed = measure_memory(key, epochs=5, mode="capture")
        assert dispatched == replayed


def _unwatched_run(key, mode, epochs=6):
    """A trainer run with no event log, tracker or tap."""
    analysis_cache.clear()
    manual_seed(0)
    device = SimulatedGPU()
    workload = registry.get(key).build(device=device, scale="test")
    device.reset()
    trainer = Trainer(workload=workload, device=device,
                      steady=mode == "steady",
                      capture_replay=mode == "capture")
    results = trainer.run(epochs=epochs, seed=0)
    analysis_cache.clear()
    return {
        "clock_s": device.clock_s,
        "host_clock_s": device.host_clock_s,
        "launch_counter": device._launch_counter,
        "stats": dataclasses.asdict(device.stats),
        "epochs": [dataclasses.asdict(r) for r in results],
    }, trainer._controller


class TestUnwatchedReplay:
    """The path training benchmarks and serving take: nothing attached."""

    @pytest.mark.parametrize("key", KEYS)
    def test_compiled_replay_matches_dispatch(self, key):
        steady, _ = _unwatched_run(key, "steady")
        replayed, ctrl = _unwatched_run(key, "capture")
        assert replayed == steady
        info = ctrl.describe()
        assert info["state"] == "replay", info
        # warmup + capture + validate, then 3 replays, all compiled
        assert info["compiled_replays"] == 3
        assert info["event_replays"] == 0

    def test_serve_replays_are_compiled(self, monkeypatch):
        from repro.serve import server

        plans = {}
        real = server.replay_epoch

        def spy(plan, device, tracker=None):
            plans[id(plan)] = plan
            return real(plan, device, tracker=tracker)

        monkeypatch.setattr(server, "replay_epoch", spy)
        report, _ = server.serve_run("PSAGE-MVL", seed=0)
        assert report["replayed_batches"] > 0
        assert sum(p.compiled_replays for p in plans.values()) \
            == report["replayed_batches"]
        assert all(p.event_replays == 0 for p in plans.values())


def _observed_capture_run(key, epochs=5):
    """A capture-replay run under a tracer and a kernel profiler."""
    analysis_cache.clear()
    manual_seed(0)
    device = SimulatedGPU()
    workload = registry.get(key).build(device=device, scale="test")
    device.reset()
    trainer = Trainer(workload=workload, device=device, capture_replay=True)
    with device.observe() as window, \
            trace.session(devices=(device,)) as tracer:
        trainer.run(epochs=epochs, seed=0)
    analysis_cache.clear()
    profiler = KernelProfiler()
    profiler.on_launch(LaunchTable.of(window.entries()))
    return device, tracer.timeline(), profiler, trainer._controller


def _kernel_span_s(timeline) -> float:
    return sum(s.dur_us for s in timeline.query(cat=trace.CAT_KERNEL)) / 1e6


class TestObservedReplay:
    """Profilers read one event log, which replay appends to: observed
    replays stay compiled, and every export of kernel time agrees."""

    @pytest.mark.parametrize("key", KEYS)
    def test_observed_replays_compile_and_agree(self, key):
        device, timeline, profiler, ctrl = _observed_capture_run(key)
        info = ctrl.describe()
        assert info["state"] == "replay", info
        # warmup + capture + validate, then 2 replays, both compiled
        assert info["compiled_replays"] == info["replayed_epochs"] == 2
        assert info["event_replays"] == 0
        registry_ = metrics.MetricsRegistry()
        metrics.collect_device(device, registry=registry_)
        gauge = registry_.gauge("repro_device_kernel_seconds_total",
                                device="0").value
        assert device.stats.kernel_time_s == profiler.total_time_s == gauge
        assert profiler.total_launches == device.stats.kernel_count
        assert _kernel_span_s(timeline) == pytest.approx(
            device.stats.kernel_time_s, rel=1e-9)

    @pytest.mark.parametrize("key", KEYS)
    def test_dispatch_exports_agree(self, key):
        with trace.session() as tracer:  # the profile's run joins it
            profile = profile_workload(key, scale="test", epochs=2, seed=0)
        # the profile collects this gauge from its run's device.stats
        kernel_s = metrics.REGISTRY.gauge("repro_device_kernel_seconds_total",
                                          device="0").value
        assert kernel_s == profile.kernels.total_time_s
        assert _kernel_span_s(tracer.timeline()) == pytest.approx(
            kernel_s, rel=1e-9)
        report = insights.insights_report(key, scale="test", epochs=2)
        assert report["stream_summary"]["kernels"] / 1e6 == pytest.approx(
            kernel_s, rel=1e-9)

    @pytest.mark.parametrize("run", sorted(MODE_RUNS))
    def test_mode_exports_agree(self, run):
        # sampled, served and sharded runs: per simulated device, the
        # gauges equal the trace's launch table
        metrics.reset()
        _, timeline = MODE_RUNS[run]()
        snap = metrics.REGISTRY.snapshot()
        seconds = snap["repro_device_kernel_seconds_total"]["series"]
        launches = snap["repro_device_kernel_launches_total"]["series"]
        labels = {pid: f'{{device="{pid}"}}' for pid in timeline.kernels}
        assert set(seconds) == set(launches) == set(labels.values())
        for pid, table in timeline.kernels.items():
            assert seconds[labels[pid]] == pytest.approx(
                float(table.duration_s.sum()), rel=1e-9)
            assert launches[labels[pid]] == len(table)


def _controller_run(key, replay, epochs=5, corrupt=False):
    """Drive a controller epoch-by-epoch under a stream recorder."""
    analysis_cache.clear()
    spec = registry.get(key)
    manual_seed(0)
    device = SimulatedGPU()
    workload = spec.build(device=device, scale="test")
    device.reset()
    controller = CaptureReplayController(workload, device, seed=0,
                                         replay=replay)
    with device.observe() as window:
        for _ in range(epochs):
            if corrupt and controller.state == "validate":
                events, epoch_metrics = controller._captured
                controller._captured = (events[:-1], epoch_metrics)
            controller.step()
    return {
        "digest": StreamRecorder(window.entries()).digest(),
        "clock_s": device.clock_s,
        "host_clock_s": device.host_clock_s,
        "stats": dataclasses.asdict(device.stats),
    }, controller


class TestFallback:
    def test_corrupted_capture_falls_back_identically(self):
        # A validation mismatch must (a) be detected, (b) permanently fall
        # back to dispatch, and (c) leave the run byte-identical to a pure
        # steady-dispatch run — fallback is invisible except in telemetry.
        key = KEYS[0]
        steady, steady_ctrl = _controller_run(key, replay=False)
        broken, broken_ctrl = _controller_run(key, replay=True, corrupt=True)
        assert steady_ctrl.state == "steady"
        assert broken_ctrl.state == "fallback"
        assert "event count" in broken_ctrl.fallback_reason \
            or "diverged" in broken_ctrl.fallback_reason
        assert broken_ctrl.replayed_epochs == 0
        assert broken_ctrl.plan is None
        assert broken == steady

    def test_describe_reports_fallback(self):
        _, ctrl = _controller_run(KEYS[0], replay=True, corrupt=True)
        info = ctrl.describe()
        assert info["state"] == "fallback"
        assert info["fallback_reason"]
        assert "plan_kernels" not in info


class TestValidateEvents:
    def test_identical_streams_pass(self):
        events = [make_launch("add"), make_transfer(), make_launch("mul")]
        assert validate_events(events, list(events)) is None

    def test_length_mismatch(self):
        events = [make_launch("add"), make_transfer()]
        assert validate_events(events, events[:-1]) is not None

    def test_tag_mismatch(self):
        assert validate_events([make_launch("add")],
                               [make_transfer()]) is not None

    def test_descriptor_field_divergence(self):
        assert validate_events(
            [make_launch("add", fp32_flops=1024.0)],
            [make_launch("add", fp32_flops=2048.0)]) is not None
        assert validate_events([make_launch("add")],
                               [make_launch("mul")]) is not None
        assert validate_events(
            [make_launch("add", phase="forward")],
            [make_launch("add", phase="backward")]) is not None

    def test_transfer_field_divergence(self):
        assert validate_events([make_transfer(nbytes=4096)],
                               [make_transfer(nbytes=8192)]) is not None
        assert validate_events([make_transfer(direction="h2d")],
                               [make_transfer(direction="d2h")]) is not None


class TestReplayUnit:
    def _plan(self, key=None):
        key = key or KEYS[0]
        analysis_cache.clear()
        manual_seed(0)
        device = SimulatedGPU()
        workload = registry.get(key).build(device=device, scale="test")
        device.reset()
        trainer = Trainer(workload=workload, device=device,
                          capture_replay=True)
        trainer.run(epochs=4, seed=0)
        ctrl = trainer._controller
        assert ctrl.state == "replay"
        return ctrl.plan, device, ctrl

    def test_replay_metrics_are_fresh_copies(self):
        plan, device, _ = self._plan()
        first = replay_epoch(plan, device)
        first["loss"] = -1.0
        second = replay_epoch(plan, device)
        assert second == plan.metrics
        assert second["loss"] != -1.0

    def test_replay_advances_launch_counter_and_clocks(self):
        plan, device, _ = self._plan()
        counter = device._launch_counter
        clock = device.clock_s
        replay_epoch(plan, device)
        assert device._launch_counter == counter + plan.kernel_count
        assert device.clock_s > clock

    def test_plan_totals_match_descriptor_sums(self):
        plan, _, _ = self._plan()
        totals = plan.totals()
        assert totals["fp32_flops"] == sum(
            e[1].descriptor.fp32_flops for e in plan.events if e[0] == "K")
        assert plan.kernel_count == sum(
            1 for e in plan.events if e[0] == "K")
        assert plan.transfer_count == sum(
            1 for e in plan.events if e[0] == "T")

    def test_trainer_controller_persists_across_runs(self):
        # benchmark protocol: warmup run(1) then timed run(3) reuse one
        # controller, so the timed run starts from the captured plan
        analysis_cache.clear()
        manual_seed(0)
        device = SimulatedGPU()
        workload = registry.get(KEYS[0]).build(device=device, scale="test")
        device.reset()
        trainer = Trainer(workload=workload, device=device,
                          capture_replay=True)
        trainer.run(epochs=1, seed=0)
        first = trainer._controller
        assert first is not None
        trainer.run(epochs=3, seed=0)
        assert trainer._controller is first
        assert first.state == "replay"
        assert first.replayed_epochs >= 1
