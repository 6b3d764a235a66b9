"""Golden profile snapshots: committed, complete, and bit-deterministic.

A profile folds pure per-launch analysis (memory/timing/stall models) over
the simulated clock into every figure accessor, so the same ``(key, scale,
epochs, seed)`` must reproduce each aggregate exactly however the run is
executed: serial, on pool workers, with the profile cache warm or cold, or
with launch-analysis memoization on or off.  Two epochs carry the
50-invocation sampling cap and the per-epoch folds across a log window.
"""

import pytest

from repro.canonical import canonical_digest
from repro.core import profile_workload
from repro.testing import golden
from tests.golden_matrix import GoldenMatrix, canonical

KEYS = list(golden.FAMILIES["profile"].keys)


class TestCommittedSnapshots:
    @pytest.mark.parametrize("key", KEYS)
    def test_snapshot_committed(self, key):
        snap = golden.load("profile", key)
        assert snap["workload"] == key
        assert snap["version"] == golden.FINGERPRINT_VERSION
        assert (snap["scale"], snap["epochs"], snap["seed"]) == ("test", 2, 0)
        assert snap["launch_count"] > 0 and snap["sim_time_s"] > 0
        assert sum(snap["op_breakdown"].values()) == pytest.approx(1.0)
        assert snap["profile_digest"]

    def test_fresh_profiles_match_goldens(self):
        diffs = golden.verify("profile", KEYS)
        assert diffs == {key: [] for key in KEYS}

    def test_compare_reports_digest_drift(self):
        expected = golden.load("profile", "DGCN")
        mutated = dict(expected, launch_count=expected["launch_count"] + 1)
        diffs = golden.compare("profile", expected, mutated)
        assert any(d.startswith("launch_count") for d in diffs)
        # the digest line fires too, last: the snapshot's payload changed
        mutated["profile_digest"] = "deadbeef"
        diffs = golden.compare("profile", expected, mutated)
        assert diffs[-1].startswith("profile_digest")


class TestDeterminism(GoldenMatrix):
    keys, task, params = KEYS[:2], "profile", dict(scale="test", epochs=2)

    def run_suite(self, *, jobs=None, cache=None):
        suite = super().run_suite(jobs=jobs, cache=cache)
        return {key: golden.profile_fingerprint(profile)
                for key, profile in suite.items()}

    def run_single(self):
        return golden.profile_fingerprint(
            profile_workload("DGCN", scale="test", epochs=2, seed=0))

    def test_digest_recomputes_from_payload(self):
        snap = self.run_single()
        payload = {k: v for k, v in snap.items() if k != "profile_digest"}
        assert canonical_digest(payload) == snap["profile_digest"]
        assert canonical(snap) == canonical(self.run_single())
