"""Golden snapshot + determinism matrix for serving reports.

Mirrors ``tests/test_memory_golden.py``: the committed
``tests/golden/serve_*.json`` snapshots pin every field of the serving
report (latency quantiles, batch histogram, HBM peaks, digest), and the
determinism matrix shows the report is a pure function of its parameters
— byte-identical across repeat runs, worker counts, profile-cache
warm/cold, and analysis-cache on/off.
"""

import json

import pytest

from repro.canonical import report_digest
from repro.serve.server import serve_run
from repro.testing import golden
from tests.golden_matrix import GoldenMatrix

KEYS = list(golden.FAMILIES["serve"].keys)


class TestCommittedSnapshots:
    @pytest.mark.parametrize("key", KEYS)
    def test_snapshot_exists_and_is_wellformed(self, key):
        report = golden.load("serve", key)
        assert report["workload"] == key
        assert report["completed"] == report["requests"]
        assert report["serve_digest"] == report_digest(report,
                                                      "serve_digest")
        q = report["latency_us"]
        assert q["p50"] <= q["p95"] <= q["p99"] <= q["max"]

    def test_fresh_runs_match_goldens(self):
        diffs = golden.verify("serve", KEYS)
        assert diffs == {key: [] for key in KEYS}

    def test_digest_drift_is_reported_last(self):
        expected = golden.load("serve", "DGCN")
        mutated = json.loads(json.dumps(expected))
        mutated["batches"] += 1
        mutated["serve_digest"] = report_digest(mutated, "serve_digest")
        diff = golden.compare("serve", expected, mutated)
        assert any("batches" in line for line in diff)
        assert "serve_digest" in diff[-1]


class TestDeterminism(GoldenMatrix):
    keys, task, params = KEYS, "serve", dict(requests=24)

    def run_single(self):
        return serve_run("DGCN", scale="test", requests=24, qps=200.0)[0]

    def run_analysis(self):
        return serve_run("PSAGE-MVL", scale="test", requests=24)[0]
