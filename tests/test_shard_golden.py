"""Golden snapshot + determinism matrix for sharded-training reports.

Mirrors ``tests/test_serve_golden.py``: the committed
``tests/golden/shard_*.json`` snapshots pin every field of the shard
report (partition metrics, halo traffic, staging bytes, HBM peaks, the
halo-exchange trace digest), and the determinism matrix shows the report
is a pure function of its parameters — byte-identical across repeat runs,
worker counts, profile-cache warm/cold, and analysis-cache on/off.  The
capacity-frontier benchmark gate rides along, like the sample gate.
"""

import json

import pytest

from repro.core import executor
from repro.testing import golden
from repro.train.sharded import digest_shard_report, shard_report
from tests.golden_matrix import GoldenMatrix

KEYS = list(golden.FAMILIES["shard"].keys)

#: fast determinism-matrix knobs: the smallest committed config
FAST = dict(parts=2, nodes=768, feat_dim=48, hidden=16, epochs=2, seed=0,
            mode="numeric")


class TestCommittedSnapshots:
    @pytest.mark.parametrize("key", KEYS)
    def test_snapshot_exists_and_is_wellformed(self, key):
        report = golden.load("shard", key)
        assert report["name"] == key
        assert report["version"] == 1
        assert report["shard_digest"] == digest_shard_report(report)
        assert report["oom_events"] == 0
        assert report["gpus"] == (1 if report["offload"] else report["parts"])
        assert sum(report["partition"]["part_sizes"]) == report["nodes"]
        assert len(report["epoch_sim_times_s"]) == report["epochs"]
        if report["offload"]:
            # out-of-core staging: PCIe traffic both ways, no NVLink halos
            assert report["halo_exchanges"] == 0
            assert report["d2h_bytes"] > 0
        elif report["parts"] > 1:
            # one feature exchange plus H1 and dH1 per epoch
            assert report["halo_exchanges"] == 1 + 2 * report["epochs"]
            assert report["halo_bytes"] > 0
        if report["mode"] == "numeric":
            assert report["losses"]
            assert report["loss_final"] == report["losses"][-1]
        else:
            assert report["losses"] == []
            assert report["loss_final"] is None

    def test_fresh_runs_match_goldens(self):
        diffs = golden.verify("shard", KEYS)
        assert diffs == {key: [] for key in KEYS}

    def test_digest_drift_is_reported_last(self):
        expected = golden.load("shard", "ARGA-P4")
        mutated = json.loads(json.dumps(expected))
        mutated["kernels"] += 1
        mutated["shard_digest"] = digest_shard_report(mutated)
        diff = golden.compare("shard", expected, mutated)
        assert any("kernels" in line for line in diff)
        assert "shard_digest" in diff[-1]

    def test_halo_trace_digest_drift_is_a_diff(self):
        expected = golden.load("shard", "ARGA-P4")
        mutated = json.loads(json.dumps(expected))
        mutated["halo_trace_digest"] = "0" * 64
        diff = golden.compare("shard", expected, mutated)
        assert any("halo_trace_digest" in line for line in diff)


class TestDeterminism(GoldenMatrix):
    keys, task = KEYS, "shard"

    def run_single(self):
        return shard_report("ARGA", **FAST)

    def run_analysis(self):
        return shard_report("ARGA", **dict(FAST, parts=4))


class TestBenchmarkGate:
    def test_committed_baseline_still_passes(self):
        with open("benchmarks/shard_baseline.json") as fh:
            baseline = json.load(fh)
        report = executor.benchmark_shard(
            ladder=tuple(baseline["ladder"]), feat_dim=baseline["feat_dim"],
            hidden=baseline["hidden"], epochs=baseline["epochs"],
            seed=baseline["seed"])
        assert executor.check_shard_regression(report, baseline) == []
        # byte-deterministic accounting: the frontier reproduces exactly
        assert report["frontier"] == baseline["frontier"]

    def test_gate_catches_lost_capacity(self):
        with open("benchmarks/shard_baseline.json") as fh:
            baseline = json.load(fh)
        broken = json.loads(json.dumps(baseline))
        ladder = broken["ladder"]
        # sharding stops buying capacity: every config's frontier collapses
        for label, cfg in broken["configs"].items():
            cfg["frontier"] = ladder[0]
        broken["frontier"] = {label: ladder[0]
                              for label in broken["frontier"]}
        failures = executor.check_shard_regression(broken, baseline)
        assert failures
        assert any("frontier" in f for f in failures)
