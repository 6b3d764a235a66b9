"""Golden snapshot + determinism matrix for sampled-training reports.

Mirrors ``tests/test_serve_golden.py``: the committed
``tests/golden/sample_*.json`` snapshots pin every field of the mini-batch
loader report (batch/edge counts, sampler cost, loader-stall accounting,
HBM peaks, digest), and the determinism matrix shows the report is a pure
function of its parameters — byte-identical across repeat runs, worker
counts, profile-cache warm/cold, and analysis-cache on/off.
"""

import json

import pytest

from repro.core import executor
from repro.testing import golden
from repro.train.loader import digest_sample_report, sample_report
from tests.golden_matrix import GoldenMatrix

KEYS = list(golden.FAMILIES["sample"].keys)

#: fast determinism-matrix knobs (one small epoch)
FAST = dict(fanouts=(4, 3), batch_size=32, epochs=1)


class TestCommittedSnapshots:
    @pytest.mark.parametrize("key", KEYS)
    def test_snapshot_exists_and_is_wellformed(self, key):
        report = golden.load("sample", key)
        assert report["workload"] == key
        assert report["sample_digest"] == digest_sample_report(report)
        assert report["batches"] == (report["batches_per_epoch"]
                                     * report["epochs"])
        assert report["queue_occupancy_max"] <= report["prefetch_depth"]
        assert report["oom_events"] == 0
        breakdown = report["stall_breakdown"]
        assert "loader_stall" in breakdown
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_fresh_runs_match_goldens(self):
        diffs = golden.verify("sample", KEYS)
        assert diffs == {key: [] for key in KEYS}

    def test_digest_drift_is_reported_last(self):
        expected = golden.load("sample", "ARGA")
        mutated = json.loads(json.dumps(expected))
        mutated["batches"] += 1
        mutated["sample_digest"] = digest_sample_report(mutated)
        diff = golden.compare("sample", expected, mutated)
        assert any("batches" in line for line in diff)
        assert "sample_digest" in diff[-1]


class TestDeterminism(GoldenMatrix):
    keys, task, params = KEYS, "sample", FAST

    def run_single(self):
        return sample_report("ARGA", scale="test", **FAST)

    def run_analysis(self):
        return sample_report("PSAGE-MVL", scale="test", **FAST)


class TestBenchmarkGate:
    def test_committed_baseline_still_passes(self):
        with open("benchmarks/sample_baseline.json") as fh:
            baseline = json.load(fh)
        report = executor.benchmark_sample(
            keys=baseline["suite"], scale=baseline["scale"],
            fanouts=tuple(baseline["fanouts"]),
            batch_size=baseline["batch_size"],
            prefetch_depth=baseline["prefetch_depth"],
            epochs=baseline["epochs"], seed=baseline["seed"])
        assert executor.check_sample_regression(report, baseline) == []
        # simulated-clock arithmetic: the measurement is exactly reproducible
        assert report["speedup"] == pytest.approx(baseline["speedup"])

    def test_gate_catches_lost_overlap(self):
        with open("benchmarks/sample_baseline.json") as fh:
            baseline = json.load(fh)
        broken = json.loads(json.dumps(baseline))
        for w in broken["workloads"].values():
            w["prefetch_epochs_per_s"] = w["sync_epochs_per_s"] * 0.9
            w["prefetch_stall_s"] = w["sync_stall_s"] * 2
        broken["speedup"] = 0.9
        failures = executor.check_sample_regression(broken, baseline)
        assert failures
        assert any("does not beat synchronous" in f for f in failures)
        assert any("did not shrink" in f for f in failures)
        assert any("fell below" in f for f in failures)
