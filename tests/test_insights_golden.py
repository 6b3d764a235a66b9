"""Golden insights snapshots: committed, complete, and bit-deterministic.

An insights report folds pure per-launch analysis (memory/timing/stall
models) over the simulated clock, so the same ``(key, scale, epochs, seed,
gpus)`` must serialize byte-identically no matter how the run is executed:
serial, on pool workers, with the profile cache warm or cold, or with
launch-analysis memoization on or off.  ``insights_digest`` (which excludes
``manifest.source_digest``) pins the committed behaviour.
"""

import pytest

from repro.canonical import report_digest
from repro.profiling import insights
from repro.testing import golden
from tests.golden_matrix import GoldenMatrix, canonical

KEYS = list(golden.FAMILIES["insights"].keys)


class TestCommittedSnapshots:
    @pytest.mark.parametrize("key", KEYS)
    def test_snapshot_committed(self, key):
        snap = golden.load("insights", key)
        assert snap["workload"] == key
        assert snap["version"] == insights.INSIGHTS_VERSION
        assert snap["attributed_us"] > 0
        assert snap["launches"] > 0
        assert snap["insights_digest"]
        # every recorded top site carries exactly one bound class
        for site in snap["top_sites"]:
            assert site["bound_class"] in insights.BOUND_CLASSES

    def test_fresh_reports_match_goldens(self):
        diffs = golden.verify("insights", KEYS)
        assert diffs == {key: [] for key in KEYS}

    def test_compare_reports_digest_drift(self):
        expected = golden.load("insights", "DGCN")
        mutated = dict(expected, launches=expected["launches"] + 1)
        diffs = golden.compare("insights", expected, mutated)
        assert any(d.startswith("launches") for d in diffs)
        # the digest line fires too, last: the canonical payload changed
        mutated["insights_digest"] = "deadbeef"
        diffs = golden.compare("insights", expected, mutated)
        assert diffs[-1].startswith("insights_digest")


class TestDeterminism(GoldenMatrix):
    keys, task, params = KEYS, "insights", dict(scale="test", epochs=2)

    def run_single(self):
        return insights.insights_report("DGCN", scale="test", epochs=2,
                                        seed=0)

    def test_digest_recomputes_from_payload(self):
        report = self.run_single()
        assert (report_digest(report, "insights_digest", "manifest.source_digest")
                == report["insights_digest"])

    def test_multi_gpu_report_is_deterministic(self):
        a = insights.insights_report("DGCN", scale="test", epochs=1, gpus=2)
        b = insights.insights_report("DGCN", scale="test", epochs=1, gpus=2)
        assert canonical(a) == canonical(b)
        assert "allreduce" in a["stream_summary"]
