"""Kernel-timeline tracing: Timeline invariants, Chrome export, guards.

Two layers of evidence:

* real-workload traces must satisfy the structural invariants the rest of
  the repo relies on (serialized streams, phase/epoch nesting, busy time
  equal to the device's own accounting);
* hypothesis-driven synthetic span sets pin the Timeline algebra
  (canonical ordering, interval union/intersection, lossless Chrome
  round-trips) far outside the shapes real workloads produce.
"""

import gc
import json
import weakref

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import profile_workload, registry
from repro.gpu import SimulatedGPU
from repro.profiling import trace
from repro.tensor import manual_seed
from repro.train import Trainer

EPS_US = 1e-6


def _traced_run(key: str = "GW", epochs: int = 1):
    """Trace a workload and keep the device for stats cross-checks."""
    spec = registry.get(key)
    manual_seed(0)
    device = SimulatedGPU()
    workload = spec.build(device=device, scale="test")
    device.reset()
    with trace.session(devices=(device,)) as tracer:
        Trainer(workload=workload, device=device).run(epochs=epochs, seed=0)
    return tracer.timeline(), device


@pytest.fixture(scope="module")
def traced():
    return _traced_run()


class TestGuards:
    def test_no_tracer_by_default(self):
        assert trace.active() is None

    def test_install_uninstall(self):
        tracer = trace.install(trace.Tracer())
        assert trace.active() is tracer
        trace.uninstall()
        assert trace.active() is None

    def test_double_install_rejected(self):
        trace.install(trace.Tracer())
        try:
            with pytest.raises(RuntimeError):
                trace.install(trace.Tracer())
        finally:
            trace.uninstall()

    def test_session_uninstalls_on_error(self, gpu):
        with pytest.raises(ValueError):
            with trace.session(devices=(gpu,)):
                raise ValueError("boom")
        assert trace.active() is None
        assert gpu.log is None

    def test_untraced_run_records_nothing(self, gpu):
        """The zero-cost guard: no tracer → the device's log stays closed."""
        spec = registry.get("GW")
        workload = spec.build(device=gpu, scale="test")
        assert gpu.log is None
        Trainer(workload=workload, device=gpu).run(epochs=1, seed=0)
        assert gpu.log is None

    def test_session_joins_an_installed_tracer(self, gpu):
        """A session under an installed tracer feeds that tracer."""
        outer = trace.install(trace.Tracer())
        try:
            with trace.session(devices=(gpu,)) as tracer:
                assert tracer is outer
                gpu.h2d(np.zeros(4, dtype=np.float32), "x")
            assert trace.active() is outer
        finally:
            trace.uninstall()
        assert len(outer.timeline().query(tid="h2d")) == 1

    def test_session_leaves_no_device_behind(self, monkeypatch):
        """A caller's tracer keeps the spans of each session that joined
        it, not the session's devices or their logs."""
        devices = []
        build = registry.WorkloadSpec.build

        def recording_build(spec, device=None, scale="profile"):
            devices.append(weakref.ref(device))
            return build(spec, device=device, scale=scale)

        monkeypatch.setattr(registry.WorkloadSpec, "build", recording_build)
        with trace.session() as tracer:
            for _ in range(3):
                profile_workload("DGCN", scale="test", epochs=3)
            gc.collect()
            assert len(devices) == 3
            assert [ref() for ref in devices] == [None, None, None]
        timeline = tracer.timeline()
        assert len(timeline.query(cat=trace.CAT_EPOCH)) == 9
        assert timeline.query(cat=trace.CAT_KERNEL)

    def test_sole_tracer_drops_folded_entries(self):
        """A tracer that alone observes a device restarts its log at each
        epoch fold; one sharing the log with another window keeps it."""
        trainer, device = TestMidRunAttach()._warmed_trainer()
        with trace.session(devices=(device,)):
            trainer.run(epochs=1, seed=0)
            assert device.log == []
            with device.observe() as window:
                trainer.run(epochs=1, seed=0)
                assert len(device.log) > 0
        launches = [e for e in window.entries() if e[0] == "K"]
        assert len(launches) == trainer.history[-1].kernels


class TestStreamInvariants:
    def test_streams_are_serialized(self, traced):
        """Within one (pid, tid) stream spans never overlap."""
        timeline, _ = traced
        streams = {(s.pid, s.tid) for s in timeline.spans}
        for pid, tid in streams:
            spans = timeline.query(pid=pid, tid=tid)
            for a, b in zip(spans, spans[1:]):
                assert b.ts_us >= a.end_us - EPS_US, (tid, a, b)

    def test_kernels_nest_in_phases(self, traced):
        timeline, _ = traced
        phases = timeline.query(cat=trace.CAT_PHASE)
        for span in timeline.query(cat=trace.CAT_KERNEL):
            assert any(
                p.pid == span.pid
                and p.name == span.arg("phase")
                and p.ts_us - EPS_US <= span.ts_us
                and span.end_us <= p.end_us + EPS_US
                for p in phases
            ), span

    def test_transfers_nest_in_transfer_phases(self, traced):
        timeline, _ = traced
        phases = timeline.query(cat=trace.CAT_PHASE, name="transfer")
        for span in timeline.query(cat=trace.CAT_TRANSFER):
            assert any(
                p.pid == span.pid
                and p.ts_us - EPS_US <= span.ts_us
                and span.end_us <= p.end_us + EPS_US
                for p in phases
            ), span

    def test_phases_nest_in_epochs(self, traced):
        timeline, _ = traced
        epochs = timeline.query(cat=trace.CAT_EPOCH)
        assert epochs
        for span in timeline.query(cat=trace.CAT_PHASE):
            assert any(
                e.pid == span.pid
                and e.ts_us - EPS_US <= span.ts_us
                and span.end_us <= e.end_us + EPS_US
                for e in epochs
            ), span

    def test_kernel_time_matches_device_stats(self, traced):
        """The trace is the device's own accounting, span by span."""
        timeline, device = traced
        kernel_us = sum(s.dur_us for s in timeline.query(cat=trace.CAT_KERNEL))
        assert kernel_us / 1e6 == pytest.approx(device.stats.kernel_time_s,
                                                rel=1e-9)
        transfer_us = sum(
            s.dur_us for s in timeline.query(cat=trace.CAT_TRANSFER)
        )
        assert transfer_us / 1e6 == pytest.approx(
            device.stats.transfer_time_s, rel=1e-9
        )
        assert len(timeline.query(cat=trace.CAT_KERNEL)) == \
            device.stats.kernel_count

    def test_busy_never_exceeds_wall(self, traced):
        timeline, _ = traced
        for pid in timeline.device_ids():
            assert 0.0 < timeline.busy_us(pid) <= timeline.wall_us() + EPS_US
            assert 0.0 <= timeline.idle_fraction(pid) < 1.0

    def test_d2h_spans_carry_no_sparsity(self, traced, gpu):
        """D2H payloads are compute results; their zero counts must never
        enter the byte-deterministic trace (the golden-stream rule)."""
        import numpy as np

        timeline, _ = traced
        h2d = timeline.query(tid="h2d")
        assert h2d
        assert all(s.arg("sparsity") is not None for s in h2d)
        # training never reads back to host, so drive d2h directly
        with trace.session(devices=(gpu,)) as tracer:
            gpu.h2d(np.zeros(64, dtype=np.float32), "in")
            gpu.d2h(np.zeros(64, dtype=np.float32), "out")
        d2h = tracer.timeline().query(tid="d2h")
        assert len(d2h) == 1
        assert d2h[0].arg("sparsity") is None
        assert d2h[0].arg("nbytes") == 256

    def test_phase_occupancy_sums_below_one(self, traced):
        timeline, _ = traced
        occupancy = timeline.phase_occupancy()
        assert set(occupancy) >= {"forward", "backward", "optimizer"}
        assert 0.0 < sum(occupancy.values()) <= 1.0 + 1e-9

    def test_critical_path_covers_busy_time(self, traced):
        timeline, _ = traced
        pid = timeline.device_ids()[0]
        assert timeline.critical_path_s() == pytest.approx(
            timeline.busy_us(pid) / 1e6, rel=1e-9
        )

    def test_summary_shape(self, traced):
        timeline, _ = traced
        summary = timeline.summary()
        assert summary["span_count"] == len(timeline)
        assert summary["wall_s"] == pytest.approx(timeline.wall_s())
        assert set(summary["span_counts"]) == \
            {trace.CAT_KERNEL, trace.CAT_TRANSFER, trace.CAT_PHASE,
             trace.CAT_EPOCH}
        assert 0.0 <= summary["compute_transfer_overlap"] <= 1.0


class TestChromeExport:
    def test_round_trip_is_lossless(self, traced):
        timeline, _ = traced
        back = trace.Timeline.from_chrome(json.loads(timeline.to_json()))
        assert back == timeline
        assert back.digest() == timeline.digest()

    def test_validate_accepts_own_output(self, traced):
        timeline, _ = traced
        trace.validate_chrome(timeline.to_chrome())

    def test_validate_rejects_missing_field(self):
        bad = {"traceEvents": [{"ph": "X", "name": "k", "cat": "kernel",
                                "pid": 0, "tid": "kernels", "ts": 0.0}]}
        with pytest.raises(ValueError, match="dur"):
            trace.validate_chrome(bad)

    def test_validate_rejects_non_monotone_stream(self):
        event = {"ph": "X", "name": "k", "cat": "kernel", "pid": 0,
                 "tid": "kernels", "dur": 1.0, "args": {}}
        bad = {"traceEvents": [dict(event, ts=5.0), dict(event, ts=1.0)]}
        with pytest.raises(ValueError, match="monotone"):
            trace.validate_chrome(bad)

    def test_validate_rejects_non_object(self):
        with pytest.raises(ValueError):
            trace.validate_chrome([])

    def test_metadata_names_every_stream(self, traced):
        timeline, _ = traced
        chrome = timeline.to_chrome()
        named = {(e["pid"], e["args"]["name"])
                 for e in chrome["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        streams = {(s.pid, s.tid) for s in timeline.spans}
        assert named == streams


class TestMidRunAttach:
    """Observing mid-run must see the launch-site fast path.

    After a warm-up epoch the launch-site memo is populated and launches go
    through ``SimulatedGPU.replay``; replay re-checks the event log on every
    call, so a tracer started *between* epochs still folds every replayed
    kernel (correct timings included) — no stale "nothing observes" state
    may survive the warm-up.
    """

    def _warmed_trainer(self):
        spec = registry.get("TLSTM")
        manual_seed(0)
        device = SimulatedGPU()
        workload = spec.build(device=device, scale="test")
        device.reset()
        trainer = Trainer(workload=workload, device=device)
        trainer.run(epochs=1, seed=0)  # untraced warm-up: memo populated
        return trainer, device

    def test_attach_after_warmup_sees_replayed_launches(self):
        trainer, device = self._warmed_trainer()
        k0 = device.stats.kernel_count
        hits0 = device.stats.analysis_hits
        with trace.session(devices=(device,)) as tracer:
            trainer.run(epochs=1, seed=0)
        timeline = tracer.timeline()
        kernels = timeline.query(cat=trace.CAT_KERNEL)
        # every steady-state launch produced a span...
        assert len(kernels) == device.stats.kernel_count - k0
        # ...and the steady-state epoch replayed from the analysis memo
        assert device.stats.analysis_hits > hits0
        # replayed envelopes carry real timings on the advancing clock
        assert all(s.dur_us > 0 for s in kernels)
        ts = [s.ts_us for s in kernels]
        assert ts == sorted(ts)
        assert len(timeline.query(cat=trace.CAT_EPOCH)) == 1

    def test_traced_epoch_matches_untraced_clock(self):
        """Observation must not perturb the simulation: a traced steady-state
        epoch lands on exactly the clock an untraced one reaches."""
        trainer_a, device_a = self._warmed_trainer()
        trainer_a.run(epochs=1, seed=0)

        trainer_b, device_b = self._warmed_trainer()
        with trace.session(devices=(device_b,)):
            trainer_b.run(epochs=1, seed=0)
        assert device_b.elapsed_s() == device_a.elapsed_s()
        assert device_b.stats.kernel_count == device_a.stats.kernel_count

    def test_detach_mid_run_stops_collection(self):
        """Leaving the session stops collection."""
        trainer, device = self._warmed_trainer()
        with trace.session(devices=(device,)) as tracer:
            trainer.run(epochs=1, seed=0)
        seen = len(tracer.timeline())
        assert seen > 0
        k0 = device.stats.kernel_count
        trainer.run(epochs=1, seed=0)
        # stats keep counting; the finished session's tracer sees nothing new
        assert device.stats.kernel_count > k0
        assert device.log is None
        assert len(tracer.timeline()) == seen


# -- hypothesis: the Timeline algebra on synthetic spans ----------------------
_TIDS = ("epoch", "phase", "kernels", "h2d", "d2h", "allreduce")


@st.composite
def span_lists(draw):
    """Synthetic spans with unique (pid, tid, ts) keys.

    Uniqueness matters: Timeline order on exact ties is insertion order (a
    stable sort), so digest-invariance under shuffling only holds when no
    two spans share a stream position — as with real launches, which are
    strictly ordered by the simulated clock.
    """
    n = draw(st.integers(min_value=0, max_value=24))
    spans, used = [], set()
    for i in range(n):
        pid = draw(st.integers(min_value=0, max_value=3))
        tid = draw(st.sampled_from(_TIDS))
        ts = draw(st.integers(min_value=0, max_value=10_000))
        if (pid, tid, ts) in used:
            continue
        used.add((pid, tid, ts))
        dur = draw(st.integers(min_value=0, max_value=500))
        args = draw(st.dictionaries(
            st.sampled_from(("op", "phase", "nbytes", "label")),
            st.one_of(st.integers(min_value=0, max_value=1 << 30),
                      st.text(alphabet="abcxyz", max_size=6)),
            max_size=3,
        ))
        spans.append(trace.Span.make(f"s{i}", draw(st.sampled_from(
            (trace.CAT_KERNEL, trace.CAT_TRANSFER, trace.CAT_ALLREDUCE,
             trace.CAT_PHASE, trace.CAT_EPOCH))),
            pid, tid, ts * 1e-6, (ts + dur) * 1e-6, args))
    return spans


class TestTimelineAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(spans=span_lists(), seed=st.integers(min_value=0, max_value=999))
    def test_order_is_canonical_under_shuffle(self, spans, seed):
        import random

        shuffled = spans[:]
        random.Random(seed).shuffle(shuffled)
        assert trace.Timeline(shuffled).digest() == \
            trace.Timeline(spans).digest()

    @settings(max_examples=60, deadline=None)
    @given(spans=span_lists())
    def test_chrome_round_trip(self, spans):
        timeline = trace.Timeline(spans)
        back = trace.Timeline.from_chrome(json.loads(timeline.to_json()))
        assert back == timeline

    @settings(max_examples=60, deadline=None)
    @given(spans=span_lists())
    def test_own_chrome_output_validates(self, spans):
        trace.validate_chrome(trace.Timeline(spans).to_chrome())

    @settings(max_examples=60, deadline=None)
    @given(spans=span_lists())
    def test_busy_bounded_by_span_sum(self, spans):
        timeline = trace.Timeline(spans)
        for pid in timeline.device_ids():
            device_spans = [s for s in timeline.spans
                            if s.pid == pid and s.cat in trace.DEVICE_CATS]
            total = sum(s.dur_us for s in device_spans)
            busy = timeline.busy_us(pid)
            assert busy <= total + EPS_US
            if device_spans:
                assert busy >= max(s.dur_us for s in device_spans) - EPS_US

    @settings(max_examples=60, deadline=None)
    @given(spans=span_lists())
    def test_overlap_is_symmetric_and_bounded(self, spans):
        timeline = trace.Timeline(spans)
        ab = timeline.overlap_us(trace.CAT_KERNEL, trace.CAT_TRANSFER)
        ba = timeline.overlap_us(trace.CAT_TRANSFER, trace.CAT_KERNEL)
        assert ab == pytest.approx(ba, abs=EPS_US)
        for cat in (trace.CAT_KERNEL, trace.CAT_TRANSFER):
            total = sum(s.dur_us for s in timeline.spans if s.cat == cat)
            assert ab <= total + EPS_US

    @settings(max_examples=60, deadline=None)
    @given(spans=span_lists())
    def test_replication_preserves_source_and_excludes_collectives(
        self, spans
    ):
        timeline = trace.Timeline(spans)
        replicated = timeline.replicate_device(0, (7, 8))
        src = timeline.query(pid=0)
        clonable = [s for s in src if s.cat != trace.CAT_ALLREDUCE]
        for pid in (7, 8):
            clones = replicated.query(pid=pid)
            assert [
                (s.name, s.cat, s.tid, s.ts_us, s.dur_us, s.args)
                for s in clones
            ] == [
                (s.name, s.cat, s.tid, s.ts_us, s.dur_us, s.args)
                for s in clonable
            ]
        assert replicated.query(pid=0) == src
