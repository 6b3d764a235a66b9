"""The run harness every single-device mode runs on: ``strict`` means the
same in every mode (the invariant checker runs, and only when asked), a
memory trace's counter track reaches the report's peaks, and the harness
sets a run up in its documented order."""

import pytest

from repro.core.characterize import measure_memory
from repro.core.run import workload_run
from repro.gpu import KernelDescriptor, OpClass
from repro.profiling import trace
from repro.serve import serve_run
from repro.tensor import autograd
from repro.testing import invariants
from repro.train.loader import sample_run
from repro.train.sharded import shard_run

#: one small run per mode that has a ``strict`` switch
MODES = {
    "memstats": lambda strict: measure_memory("DGCN", strict=strict),
    "sample": lambda strict: sample_run(
        "ARGA", fanouts=(4, 3), batch_size=32, epochs=1, strict=strict)[0],
    "serve": lambda strict: serve_run("DGCN", requests=8,
                                      strict=strict)[0],
    "shard": lambda strict: shard_run(
        "ARGA", parts=2, nodes=768, feat_dim=48, hidden=16, epochs=1,
        mode="capacity", strict=strict)[0],
}


class TestStrictEveryMode:
    @pytest.mark.parametrize("mode", MODES)
    def test_strict_runs_the_checker(self, mode, monkeypatch):
        def fail(checker, launch):
            raise invariants.InvariantViolation("probe")

        monkeypatch.setattr(invariants.InvariantChecker, "on_launch", fail)
        with pytest.raises(invariants.InvariantViolation, match="probe"):
            MODES[mode](True)

    @pytest.mark.parametrize("mode", MODES)
    def test_only_strict_runs_the_checker(self, mode, monkeypatch):
        calls = []
        monkeypatch.setattr(invariants.InvariantChecker, "__call__",
                            lambda checker, entry: calls.append(entry))
        MODES[mode](False)
        assert calls == []

    @pytest.mark.parametrize("mode", MODES)
    def test_strict_passes_and_changes_nothing(self, mode):
        assert MODES[mode](True) == MODES[mode](False)

    def test_checker_accepts_every_framework_phase(self):
        def descriptor(phase):
            return KernelDescriptor(name="k", op_class=OpClass.GEMM,
                                    threads=32, fp32_flops=1.0,
                                    bytes_read=4.0, phase=phase)

        assert {"setup", "serve"} < set(autograd.PHASES)
        for phase in autograd.PHASES:
            invariants.check_descriptor(descriptor(phase))
        with pytest.raises(invariants.InvariantViolation,
                           match="unknown phase 'warmup'"):
            invariants.check_descriptor(descriptor("warmup"))


def _counter_peaks(timeline) -> dict:
    counters = [span for span in timeline.spans
                if span.cat == trace.CAT_COUNTER]
    assert counters
    return {field: max(span.arg(field) for span in counters)
            for field in ("live_bytes", "reserved_bytes")}


def _report_peaks(report: dict) -> dict:
    return {"live_bytes": report["peak_live_bytes"],
            "reserved_bytes": report["peak_reserved_bytes"]}


class TestCounterTrackPeaks:
    """Samples within one simulated instant coalesce to their maximum, so
    a memory counter track peaks where the allocator report does."""

    @pytest.mark.parametrize("key", ["DGCN", "TLSTM"])
    def test_memory_trace(self, key):
        timeline = trace.trace_workload(key, memory=True)
        assert _counter_peaks(timeline) == _report_peaks(measure_memory(key))

    def test_traced_sample_run(self):
        report, timeline = sample_run("ARGA", fanouts=(4, 3), batch_size=32,
                                      epochs=1, traced=True)
        assert _counter_peaks(timeline) == _report_peaks(report)

    def test_traced_serve_run(self):
        report, timeline = serve_run("PSAGE-MVL", requests=64, traced=True)
        assert _counter_peaks(timeline) == _report_peaks(report)

    def test_same_instant_samples_keep_each_fields_maximum(self):
        tracer = trace.Tracer()
        tracer.add_counter(0, 1e-6, {"live_bytes": 10, "reserved_bytes": 64})
        tracer.add_counter(0, 1e-6, {"live_bytes": 30, "reserved_bytes": 32})
        tracer.add_counter(0, 1e-6, {"live_bytes": 20, "reserved_bytes": 32})
        tracer.add_counter(0, 2e-6, {"live_bytes": 5, "reserved_bytes": 32})
        samples = [span.args_dict() for span in tracer.spans]
        assert samples == [{"live_bytes": 30, "reserved_bytes": 64},
                           {"live_bytes": 5, "reserved_bytes": 32}]


class TestHarnessOrder:
    def test_tracked_build_runs_in_setup_under_suspended_gc(self):
        import gc

        seen = {}

        def build(device):
            seen.update(phase=autograd.current_phase(),
                        gc=gc.isenabled(), clock=device.clock_s)
            device.clock_s = 1.0
            return "workload"

        with workload_run(build, memory=True, strict=True,
                          observe=trace.Tracer) as run:
            assert run.workload == "workload"
            assert run.device.clock_s == 0.0  # reset after the build
            assert run.device.checker is not None
            assert run.tracer is trace.active()
            assert not gc.isenabled()
        assert seen == {"phase": "setup", "gc": False, "clock": 0.0}
        assert gc.isenabled()
        assert trace.active() is None

    def test_untracked_build_keeps_the_callers_phase(self):
        seen = []
        with workload_run(lambda device: seen.append(
                autograd.current_phase())) as run:
            assert run.tracker is None and run.tracer is None
            assert run.device.checker is None
        assert seen == ["forward"]
