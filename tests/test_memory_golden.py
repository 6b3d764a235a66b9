"""Golden memory snapshots: committed, complete, and bit-deterministic.

The memory report is shape-derived (allocation sizes) plus refcount-driven
(free points, cyclic GC suspended), so the same ``(key, scale, epochs,
seed)`` must serialize byte-identically no matter how the run is executed:
serial, on pool workers, or with the profile cache on or off.
"""

import pytest

from repro.core import characterize, registry
from repro.testing import golden
from tests.golden_matrix import GoldenMatrix, canonical

# two cheap workloads exercise the determinism matrix; CI verifies all nine
KEYS = ["DGCN", "KGNNL"]


class TestCommittedSnapshots:
    @pytest.mark.parametrize("key", sorted(registry.WORKLOAD_KEYS))
    def test_snapshot_committed_for_every_workload(self, key):
        report = golden.load("memory", key)
        assert report["workload"] == key
        assert report["version"] == 1
        assert report["peak_live_bytes"] > 0
        assert report["memory_digest"]

    def test_fresh_reports_match_goldens(self):
        diffs = golden.verify("memory", KEYS)
        assert diffs == {key: [] for key in KEYS}

    def test_compare_reports_digest_drift(self):
        expected = golden.load("memory", "DGCN")
        mutated = dict(expected, peak_live_bytes=expected["peak_live_bytes"]
                       + 512)
        diffs = golden.compare("memory", expected, mutated)
        assert any(d.startswith("peak_live_bytes") for d in diffs)
        # the digest line fires too, last: the canonical payload changed
        mutated["memory_digest"] = "deadbeef"
        diffs = golden.compare("memory", expected, mutated)
        assert diffs[-1].startswith("memory_digest")


class TestDeterminism(GoldenMatrix):
    keys, task, params = KEYS, "memstats", dict(scale="test", epochs=1)

    def run_single(self):
        return characterize.measure_memory("DGCN", scale="test", epochs=1)

    def test_uncached_run_matches_cache_population(self, tmp_path):
        from repro.core.cache import ProfileCache

        uncached = self.run_suite(cache=False)
        cold = self.run_suite(cache=ProfileCache(tmp_path))
        for key in KEYS:
            assert canonical(uncached[key]) == canonical(cold[key])
