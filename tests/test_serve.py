"""Unit and integration tests for the serving simulation (``repro.serve``).

Covers the three layers separately — arrival generation, the pure
batcher/queueing loop, and the full ``serve_run`` pipeline on real
workloads — plus the trace/metrics integrations and the
``profile_inference`` timeline regression.
"""

import json

import numpy as np
import pytest

from repro.canonical import report_digest
from repro.profiling import metrics as metrics_mod
from repro.profiling import trace
from repro.serve import (
    ARRIVALS,
    Request,
    generate_requests,
    run_queue,
    serve_run,
)


def _affine_runner(base_s=1e-4, per_req_s=2e-5):
    """Synthetic device-free batch cost: affine in batch size."""

    def run_batch(members, start_s):
        return start_s + base_s + per_req_s * len(members)

    return run_batch


class TestArrivals:
    def test_deterministic_and_sorted(self):
        for arrival in ARRIVALS:
            a = generate_requests(100, qps=200.0, arrival=arrival,
                                  population=50, seed=7)
            b = generate_requests(100, qps=200.0, arrival=arrival,
                                  population=50, seed=7)
            assert a == b
            times = [r.arrival_s for r in a]
            assert times == sorted(times)
            assert all(t > 0 for t in times)
            assert [r.index for r in a] == list(range(100))

    def test_seed_changes_schedule(self):
        a = generate_requests(50, qps=100.0, population=10, seed=0)
        b = generate_requests(50, qps=100.0, population=10, seed=1)
        assert [r.arrival_s for r in a] != [r.arrival_s for r in b]

    def test_entities_within_population(self):
        reqs = generate_requests(200, qps=100.0, arrival="bursty",
                                 population=13, num_users=5, seed=3)
        assert all(0 <= r.entity < 13 for r in reqs)
        assert all(0 <= r.user < 5 for r in reqs)

    def test_empirical_rate_near_qps(self):
        # Mean arrival rate over a long run should approach qps for both
        # processes (the MMPP's two states average back to qps).
        for arrival in ARRIVALS:
            reqs = generate_requests(2000, qps=100.0, arrival=arrival,
                                     population=10, seed=0)
            rate = len(reqs) / reqs[-1].arrival_s
            assert rate == pytest.approx(100.0, rel=0.15)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError, match="requests"):
            generate_requests(0, qps=10.0, population=1)
        with pytest.raises(ValueError, match="qps"):
            generate_requests(1, qps=0.0, population=1)
        with pytest.raises(ValueError, match="arrival"):
            generate_requests(1, qps=10.0, arrival="uniform", population=1)


class TestQueueing:
    def _mkreqs(self, arrivals):
        return [Request(index=i, user=0, entity=i, arrival_s=t)
                for i, t in enumerate(arrivals)]

    def test_max_wait_forces_dispatch(self):
        # One lonely request: dispatched exactly max_wait after arrival.
        reqs = self._mkreqs([0.010])
        served, batches = run_queue(reqs, batch_max=8, max_wait_s=0.002,
                                    run_batch=_affine_runner())
        assert len(batches) == 1
        assert batches[0].dispatch_s == pytest.approx(0.012)
        assert served[0].wait_s == pytest.approx(0.002)

    def test_full_batch_dispatches_early(self):
        # Four near-simultaneous arrivals with batch_max=4: the batch goes
        # as soon as the fourth arrives, not at head.arrival + max_wait.
        reqs = self._mkreqs([0.001, 0.0011, 0.0012, 0.0013])
        served, batches = run_queue(reqs, batch_max=4, max_wait_s=0.050,
                                    run_batch=_affine_runner())
        assert len(batches) == 1
        assert batches[0].dispatch_s == pytest.approx(0.0013)
        assert batches[0].size == 4

    def test_batch_max_caps_and_splits(self):
        reqs = self._mkreqs([0.001] * 10)
        served, batches = run_queue(reqs, batch_max=4, max_wait_s=0.010,
                                    run_batch=_affine_runner())
        assert [b.size for b in batches] == [4, 4, 2]
        # FIFO: concatenated members recover arrival order
        flat = [m for b in batches for m in b.members]
        assert flat == list(range(10))

    def test_late_join_rides_busy_server(self):
        # While the server is busy with batch 0, more requests arrive; they
        # join the queue and are admitted when the server frees up.
        runner = _affine_runner(base_s=0.010, per_req_s=0.0)
        reqs = self._mkreqs([0.001, 0.002, 0.003])
        served, batches = run_queue(reqs, batch_max=8, max_wait_s=0.0005,
                                    run_batch=runner)
        assert batches[0].members == (0,)
        # requests 1 and 2 arrived while batch 0 computed -> one batch
        assert batches[1].members == (1, 2)
        assert batches[1].start_s >= batches[0].complete_s

    def test_conservation(self):
        reqs = self._mkreqs(list(np.cumsum(np.full(37, 0.0007))))
        served, batches = run_queue(reqs, batch_max=5, max_wait_s=0.001,
                                    run_batch=_affine_runner())
        assert len(served) == len(reqs)
        assert sum(b.size for b in batches) == len(reqs)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError, match="batch_max"):
            run_queue([], batch_max=0, max_wait_s=0.0,
                      run_batch=_affine_runner())
        with pytest.raises(ValueError, match="max_wait_s"):
            run_queue([], batch_max=1, max_wait_s=-1.0,
                      run_batch=_affine_runner())
        with pytest.raises(ValueError, match="max_wait_s"):
            run_queue([], batch_max=1, max_wait_s=float("nan"),
                      run_batch=_affine_runner())

    def test_time_travelling_runner_rejected(self):
        reqs = self._mkreqs([0.001])
        with pytest.raises(RuntimeError, match="complete"):
            run_queue(reqs, batch_max=1, max_wait_s=0.0,
                      run_batch=lambda members, start_s: start_s - 1.0)


SERVE_KWARGS = dict(scale="test", qps=200.0, arrival="poisson",
                    batch_max=8, max_wait_us=2000.0, requests=48,
                    num_users=16, seed=0)


class TestServeRun:
    @pytest.fixture(scope="class")
    def psage_result(self):
        report, timeline = serve_run("PSAGE-MVL", traced=True,
                                     **SERVE_KWARGS)
        return report, timeline

    def test_report_invariants(self, psage_result):
        report, _ = psage_result
        assert report["completed"] == report["requests"] == 48
        assert sum(report["batch_size_hist"].values()) == report["batches"]
        assert all(1 <= int(s) <= report["batch_max"]
                   for s in report["batch_size_hist"])
        assert report["captured_plans"] + report["replayed_batches"] \
            == report["batches"]
        assert report["throughput_rps"] > 0
        assert report["peak_reserved_bytes"] > 0
        assert report["peak_live_bytes"] > 0
        assert report["oom_events"] == 0
        for block in ("latency_us", "wait_us", "compute_us"):
            q = report[block]
            assert q["p50"] <= q["p95"] <= q["p99"] <= q["max"]
            assert q["max"] > 0
        # latency decomposes into queueing + compute at every quantile's
        # underlying sample, so the maxima obey the triangle bound
        assert report["latency_us"]["max"] <= (
            report["wait_us"]["max"] + report["compute_us"]["max"] + 1e-6)

    def test_digest_repeatable_and_traced_invariant(self, psage_result):
        report, _ = psage_result
        again, _ = serve_run("PSAGE-MVL", traced=False, **SERVE_KWARGS)
        # tracing must not perturb the simulation: byte-identical reports
        assert json.dumps(report, sort_keys=True) \
            == json.dumps(again, sort_keys=True)
        assert (report_digest(report, "serve_digest")
                == report["serve_digest"])

    def test_trace_streams_round_trip(self, psage_result):
        report, timeline = psage_result
        counts = timeline.span_counts()
        assert counts.get("queue") == report["requests"]
        assert counts.get("serve") == report["batches"]
        assert counts.get("kernel", 0) > 0
        chrome = timeline.to_chrome()
        trace.validate_chrome(chrome)
        back = trace.Timeline.from_chrome(chrome)
        assert back.span_counts().get("serve") == report["batches"]
        # queue spans sit on their own stream, after serve in the lane order
        names = {ev["name"] for ev in chrome["traceEvents"]
                 if ev.get("cat") == "queue"}
        assert any(name.startswith("req ") for name in names)

    def test_metrics_registry_carries_serve_gauges(self, psage_result):
        report, _ = psage_result
        metrics_mod.reset()
        metrics_mod.collect_report("serve", report)
        text = metrics_mod.registry().to_prometheus()
        assert "repro_serve_latency_us" in text
        assert "repro_serve_throughput_rps" in text
        assert 'workload="PSAGE-MVL"' in text
        assert 'arrival="poisson"' in text

    def test_bursty_deterministic(self):
        kwargs = dict(SERVE_KWARGS, arrival="bursty", requests=32)
        r1, _ = serve_run("DGCN", **kwargs)
        r2, _ = serve_run("DGCN", **kwargs)
        assert r1 == r2
        assert r1["arrival"] == "bursty"

    def test_unserveable_key_rejected(self):
        with pytest.raises(ValueError, match="no serving engine"):
            serve_run("TLSTM", **SERVE_KWARGS)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError, match="qps"):
            serve_run("DGCN", **dict(SERVE_KWARGS, qps=0.0))
        with pytest.raises(ValueError, match="batch-max"):
            serve_run("DGCN", **dict(SERVE_KWARGS, batch_max=0))
        with pytest.raises(ValueError, match="max-wait-us"):
            serve_run("DGCN", **dict(SERVE_KWARGS, max_wait_us=-1.0))
        with pytest.raises(ValueError, match="max-wait-us"):
            serve_run("DGCN", **dict(SERVE_KWARGS, max_wait_us=float("nan")))


class TestInferenceTimeline:
    def test_profile_inference_carries_phase_spans(self):
        # Regression: profile_inference used to skip the tracer entirely,
        # returning an empty timeline_summary unlike profile_workload.
        from repro.core.characterize import profile_inference

        profile = profile_inference("DGCN", scale="test")
        summary = profile.timeline_summary
        assert summary, "inference profile should carry a timeline summary"
        assert summary["span_count"] > 0
        assert "forward" in summary["phase_occupancy"]
        assert "backward" not in summary["phase_occupancy"]

    def test_caller_tracer_wins(self):
        from repro.core.characterize import profile_inference

        tracer = trace.install(trace.Tracer())
        try:
            profile = profile_inference("DGCN", scale="test")
        finally:
            trace.uninstall()
        # caller-owned trace: the profile must not hijack the summary
        assert profile.timeline_summary == {}
