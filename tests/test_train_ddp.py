"""Trainer and the DDP multi-GPU simulation."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.core import executor, registry
from repro.gpu import SimulatedGPU
from repro.profiling import trace
from repro.tensor.ops.base import launch_elementwise
from repro.train import Trainer, ddp, run_scaling_point
from repro.train.ddp import _count_steps, _shard_batch
from repro.train.trainer import HISTORY_WINDOW


class TestTrainer:
    def test_history_and_timing(self):
        device = SimulatedGPU()
        workload = registry.get("TLSTM").build(device=device, scale="test")
        trainer = Trainer(workload=workload, device=device)
        results = trainer.run(epochs=2, seed=0)
        assert len(results) == 2
        assert all(r.sim_time_s > 0 for r in results)
        assert all(r.kernels > 0 for r in results)

    def test_average_skips_warmup(self):
        device = SimulatedGPU()
        workload = registry.get("TLSTM").build(device=device, scale="test")
        trainer = Trainer(workload=workload, device=device)
        trainer.run(epochs=3, seed=0)
        avg = trainer.average_epoch_time()
        later = [r.sim_time_s for r in trainer.history[1:]]
        assert avg == pytest.approx(np.mean(later))


class _GrowingWorkload:
    """Each epoch launches one kernel larger than the last."""

    def __init__(self, device):
        self.device = device
        self.epochs = 0

    def train_epoch(self, rng):
        self.epochs += 1
        launch_elementwise(self.device, "stub", (1 << 18) * self.epochs)
        return {"loss": float(self.epochs)}


def test_history_keeps_a_window_of_long_runs():
    device = SimulatedGPU()
    trainer = Trainer(workload=_GrowingWorkload(device), device=device)
    first = trainer.run(epochs=3)
    rest = trainer.run(epochs=HISTORY_WINDOW + 5)
    assert [r.epoch for r in first + rest] == list(range(HISTORY_WINDOW + 8))
    assert trainer.epochs_run == HISTORY_WINDOW + 8
    assert trainer.history == rest[-HISTORY_WINDOW:]
    times = [r.sim_time_s for r in first + rest]
    assert len(set(times)) == len(times)
    assert trainer.average_epoch_time() == pytest.approx(np.mean(times[1:]))
    assert trainer.average_epoch_time(skip_first=False) == pytest.approx(
        np.mean(times))


class TestDDPHelpers:
    def test_shard_batch_splits(self):
        w = registry.get("DGCN").build(scale="test")
        original = w.batch_size
        shard = _shard_batch(w, 4)
        assert w.batch_size == max(1, original // 4)
        assert shard is not None and shard.size <= w.dataset.train_idx.size

    def test_steps_invariant_under_sharding(self):
        """Strong scaling: global optimizer steps do not grow with N."""
        one = registry.get("DGCN").build(scale="test")
        steps_1 = _count_steps(one, 1)
        four = registry.get("DGCN").build(scale="test")
        _shard_batch(four, 4)
        steps_4 = _count_steps(four, 4)
        assert abs(steps_4 - steps_1) <= 1

    def test_batches_per_epoch_workloads_not_index_sharded(self):
        w = registry.get("STGCN").build(scale="test")
        assert _shard_batch(w, 2) is None


class TestScalingPoints:
    def test_arga_excluded(self):
        with pytest.raises(ValueError):
            run_scaling_point("ARGA", 2, scale="test")

    def test_single_gpu_no_allreduce(self):
        point = run_scaling_point("TLSTM", 1, scale="test")
        assert point.allreduce_time_s == 0.0
        assert point.epoch_time_s > 0

    def test_multi_gpu_pays_allreduce(self):
        point = run_scaling_point("TLSTM", 4, scale="test")
        assert point.allreduce_time_s > 0
        assert point.grad_bytes > 0

    def test_replicate_mode_does_not_shrink_compute(self):
        """PSAGE: data replication keeps per-device compute ~constant and
        adds contention, so multi-GPU is slower (the paper's Figure 9)."""
        one = run_scaling_point("PSAGE-MVL", 1, scale="test", epochs=1)
        four = run_scaling_point("PSAGE-MVL", 4, scale="test", epochs=1)
        assert four.epoch_time_s > one.epoch_time_s * 0.95

    def test_tlstm_does_not_scale(self):
        """Tiny serialized kernels: the paper's flat TLSTM bars."""
        one = run_scaling_point("TLSTM", 1, scale="test", epochs=1)
        four = run_scaling_point("TLSTM", 4, scale="test", epochs=1)
        speedup = one.epoch_time_s / four.epoch_time_s
        assert speedup < 1.5


class TestScalingStudy:
    def test_each_distinct_stream_runs_once(self, monkeypatch):
        """Fig. 9 and weak scaling over the DDP workloads at 1/2/4 GPUs
        simulate 20 streams: three splits for each of the six batch-split
        workloads, and one for each PSAGE, whose three strong points read
        it.  Every weak point reads its workload's split-1 stream."""
        calls = []
        stream = ddp.replica_stream

        def counted(key, split, *args, **kwargs):
            calls.append((key, split))
            return stream(key, split, *args, **kwargs)

        monkeypatch.setattr(ddp, "replica_stream", counted)
        studies = executor.suite("scaling", ddp.DDP_KEYS, jobs=1, cache=None,
                                 scale="test", epochs=1, seed=0,
                                 gpu_counts=(1, 2, 4))
        assert len(calls) == len(set(calls)) == 20
        for key, study in studies.items():
            split_1 = study["streams"][0]
            assert split_1["split"] == 1
            for point in study["weak"]:
                assert point["compute_time_s"] == split_1["compute_time_s"]
                assert point["steps"] == split_1["steps"]
        for key in ("PSAGE-MVL", "PSAGE-NWP"):
            assert [s["split"] for s in studies[key]["streams"]] == [1]
            assert {p["compute_time_s"] for p in studies[key]["strong"]} \
                == {studies[key]["streams"][0]["compute_time_s"]}
        # the study's points are the entry points' points
        assert studies["DGCN"]["strong"][2] == \
            asdict(run_scaling_point("DGCN", 4, scale="test"))
        assert studies["PSAGE-MVL"]["weak"][1] == \
            asdict(ddp.run_weak_scaling_point("PSAGE-MVL", 2, scale="test"))


@pytest.fixture(scope="module")
def ddp_traces():
    """TLSTM timelines at 1, 2 and 4 simulated GPUs."""
    return {n: trace.trace_workload("TLSTM", num_gpus=n) for n in (1, 2, 4)}


def _kernel_sequence(timeline, pid):
    return [(s.name, s.arg("op"), s.arg("phase"))
            for s in timeline.query(pid=pid, cat=trace.CAT_KERNEL)]


class TestTracedDDP:
    def test_arga_excluded(self):
        with pytest.raises(ValueError):
            trace.trace_workload("ARGA", num_gpus=2)

    def test_single_gpu_has_no_allreduce_spans(self, ddp_traces):
        assert not ddp_traces[1].query(cat=trace.CAT_ALLREDUCE)

    def test_every_device_gets_allreduce_spans(self, ddp_traces):
        for n in (2, 4):
            timeline = ddp_traces[n]
            assert timeline.device_ids() == list(range(n))
            for pid in range(n):
                assert timeline.query(pid=pid, cat=trace.CAT_ALLREDUCE)

    def test_allreduce_sits_between_backward_and_optimizer(self, ddp_traces):
        """DDP's gradient sync fires after the backward kernels of its step
        and before the parameter updates — bucket spans must interleave
        exactly there on every device."""
        for n in (2, 4):
            timeline = ddp_traces[n]
            for pid in timeline.device_ids():
                events = sorted(
                    timeline.query(pid=pid, cat=trace.CAT_KERNEL)
                    + timeline.query(pid=pid, cat=trace.CAT_ALLREDUCE),
                    key=lambda s: s.ts_us,
                )
                for i, span in enumerate(events):
                    if span.cat != trace.CAT_ALLREDUCE:
                        continue
                    before = [e for e in events[:i]
                              if e.cat == trace.CAT_KERNEL]
                    assert before and before[-1].arg("phase") == "backward"
                    assert span.ts_us >= before[-1].end_us - 1e-6
                    after = [e for e in events[i + 1:]
                             if e.cat == trace.CAT_KERNEL]
                    assert after and after[0].arg("phase") == "optimizer"

    def test_replicas_identical_within_a_trace(self, ddp_traces):
        """Symmetric DDP: every pid carries the same spans, timestamps
        included (allreduce buckets too — the collective is a barrier)."""
        for n in (2, 4):
            timeline = ddp_traces[n]
            base = [(s.name, s.cat, s.tid, s.ts_us, s.dur_us, s.args)
                    for s in timeline.query(pid=0)]
            for pid in range(1, n):
                assert [(s.name, s.cat, s.tid, s.ts_us, s.dur_us, s.args)
                        for s in timeline.query(pid=pid)] == base

    def test_kernel_sequence_invariant_across_gpu_counts(self, ddp_traces):
        """Scaling the device count must not change what any device runs —
        only *when* (the collectives push later steps back)."""
        base = _kernel_sequence(ddp_traces[1], 0)
        assert len(base) > 100
        for n in (2, 4):
            for pid in range(n):
                assert _kernel_sequence(ddp_traces[n], pid) == base

    def test_timestamps_shift_with_collectives(self, ddp_traces):
        one = [s.ts_us for s in ddp_traces[1].query(pid=0,
                                                    cat=trace.CAT_KERNEL)]
        four = [s.ts_us for s in ddp_traces[4].query(pid=0,
                                                     cat=trace.CAT_KERNEL)]
        assert len(one) == len(four)
        assert four != one
        assert ddp_traces[4].wall_us() > ddp_traces[1].wall_us()

    def test_bucket_spans_account_full_payload(self, ddp_traces):
        timeline = ddp_traces[2]
        buckets = timeline.query(pid=0, cat=trace.CAT_ALLREDUCE)
        spec = registry.get("TLSTM")
        replica = spec.build(scale="test")
        grad_bytes = replica.optimizer.gradient_bytes()
        # spans group into optimizer steps; every step moves the full payload
        total = sum(b.arg("nbytes") for b in buckets)
        steps = len({b.ts_us for b in buckets
                     if b.name == "allreduce.bucket0"})
        assert total == grad_bytes * steps
