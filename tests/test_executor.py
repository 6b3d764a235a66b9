"""Suite execution engine: serial ≡ parallel ≡ cache-hit, cache hygiene.

The engine's correctness bar is *bit-identical kernel streams*: golden
SHA-256 digests from serial execution, process-pool execution (jobs=1,2,4)
and cache-hit replay must match byte for byte for every registry workload.
Everything else here guards the cache's failure modes: keys must change
with any profile parameter or source edit, and damaged entries must fall
back to recomputation, never crash.
"""

from __future__ import annotations

import functools
import pickle

import pytest

from repro.core import executor, registry
from repro.core.cache import CACHE_VERSION, ProfileCache, default_cache_dir
from repro.testing import golden

ALL_KEYS = list(registry.WORKLOAD_KEYS)
fingerprints = functools.partial(executor.suite, "fingerprint", scale="test",
                                 epochs=1, seed=0)


@pytest.fixture(scope="module")
def populated_cache(tmp_path_factory):
    """A ProfileCache whose root outlives individual tests in this module."""
    return ProfileCache(root=tmp_path_factory.mktemp("executor-cache"))


@pytest.fixture(scope="module")
def serial_fingerprints(populated_cache):
    """Ground truth: the whole registry fingerprinted serially (this run
    also populates ``populated_cache`` for the cache-hit leg)."""
    return fingerprints(ALL_KEYS, jobs=1, cache=populated_cache)


def _digests(fps: dict) -> dict[str, str]:
    return {k: fp["stream_digest"] for k, fp in fps.items()}


class TestEquivalence:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_parallel_digests_byte_identical(self, jobs, serial_fingerprints):
        fps = fingerprints(ALL_KEYS, jobs=jobs)
        assert _digests(fps) == _digests(serial_fingerprints)

    def test_cache_hit_digests_byte_identical(self, serial_fingerprints,
                                              populated_cache, monkeypatch):
        hits_before = populated_cache.hits
        # prove hits replay from disk: recomputation would now blow up
        monkeypatch.setattr(
            golden, "fingerprint_workload",
            lambda *a, **k: pytest.fail("cache hit still recomputed"),
        )
        again = fingerprints(ALL_KEYS, jobs=1, cache=populated_cache)
        assert populated_cache.hits - hits_before == len(ALL_KEYS)
        assert _digests(again) == _digests(serial_fingerprints)

    def test_serial_fingerprints_match_committed_snapshots(self,
                                                           serial_fingerprints):
        """Anchor the equivalence chain to the committed snapshots: with
        serial == committed here and parallel/cache == serial above, every
        execution path reproduces tests/golden/*.json byte for byte."""
        for key in ALL_KEYS:
            expected = golden.load("stream", key)
            assert (serial_fingerprints[key]["stream_digest"]
                    == expected["stream_digest"]), key


class TestCacheInvalidation:
    def test_key_changes_with_every_field(self, tmp_path):
        cache = ProfileCache(root=tmp_path, fingerprint="code-v1")
        base = dict(key="TLSTM", scale="test", epochs=1, seed=0)
        reference = cache.key_for("fingerprint", **base)
        for variant in (dict(base, seed=1), dict(base, scale="profile"),
                        dict(base, epochs=2), dict(base, key="ARGA")):
            assert cache.key_for("fingerprint", **variant) != reference
        assert cache.key_for("profile", **base) != reference
        other_code = ProfileCache(root=tmp_path, fingerprint="code-v2")
        assert other_code.key_for("fingerprint", **base) != reference

    def test_seed_change_is_a_miss(self, tmp_path):
        cache = ProfileCache(root=tmp_path)
        first = fingerprints(["TLSTM"], seed=0, cache=cache)
        second = fingerprints(["TLSTM"], seed=1, cache=cache)
        assert cache.hits == 0 and cache.misses == 2
        assert (first["TLSTM"]["stream_digest"]
                != second["TLSTM"]["stream_digest"])

    def test_source_edit_is_a_miss(self, tmp_path):
        before = ProfileCache(root=tmp_path, fingerprint="code-v1")
        fingerprints(["TLSTM"], cache=before)
        assert before.stores == 1
        after = ProfileCache(root=tmp_path, fingerprint="code-v2")
        fingerprints(["TLSTM"], cache=after)
        assert after.hits == 0 and after.misses == 1

    def test_unchanged_params_hit(self, tmp_path):
        cache = ProfileCache(root=tmp_path)
        first = fingerprints(["TLSTM"], cache=cache)
        again = fingerprints(["TLSTM"], cache=cache)
        assert cache.hits == 1
        assert first["TLSTM"] == again["TLSTM"]


class TestCacheDamage:
    def _store_one(self, tmp_path):
        cache = ProfileCache(root=tmp_path)
        fps = fingerprints(["TLSTM"], cache=cache)
        [path] = sorted(tmp_path.glob("*.pkl"))
        return fps["TLSTM"], path

    def test_corrupted_entry_recomputes(self, tmp_path):
        reference, path = self._store_one(tmp_path)
        path.write_bytes(b"this is not a pickle")
        fresh = ProfileCache(root=tmp_path)
        fps = fingerprints(["TLSTM"], cache=fresh)
        assert fresh.hits == 0 and fresh.misses == 1
        assert fps["TLSTM"]["stream_digest"] == reference["stream_digest"]

    def test_truncated_entry_recomputes(self, tmp_path):
        reference, path = self._store_one(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        fresh = ProfileCache(root=tmp_path)
        fps = fingerprints(["TLSTM"], cache=fresh)
        assert fresh.hits == 0
        assert fps["TLSTM"]["stream_digest"] == reference["stream_digest"]

    def test_version_skew_is_a_miss(self, tmp_path):
        cache = ProfileCache(root=tmp_path)
        key = cache.key_for("fingerprint", key="TLSTM")
        entry = {"version": CACHE_VERSION + 1, "key": key, "payload": {"x": 1}}
        cache.root.mkdir(parents=True, exist_ok=True)
        cache.path_for(key).write_bytes(pickle.dumps(entry))
        assert cache.load(key) is None
        # the skewed file is discarded so it cannot shadow a future store
        assert not cache.path_for(key).exists()

    def test_unwritable_root_is_not_fatal(self, tmp_path):
        cache = ProfileCache(root=tmp_path / "file-in-the-way")
        (tmp_path / "file-in-the-way").write_text("not a directory")
        fps = fingerprints(["TLSTM"], cache=cache)
        assert fps["TLSTM"]["workload"] == "TLSTM"
        assert cache.stores == 0


class TestExecutor:
    def test_unknown_task_kind_raises(self):
        with pytest.raises(ValueError, match="unknown task kind"):
            executor.execute_task(("teleport", {"key": "TLSTM"}))

    def test_resolve_jobs(self, monkeypatch):
        assert executor.resolve_jobs(4) == 4
        assert executor.resolve_jobs(0) == 1
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert executor.resolve_jobs(None) == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert executor.resolve_jobs(None) == 3
        monkeypatch.setenv("REPRO_JOBS", "soon")
        assert executor.resolve_jobs(None) == 1

    def test_default_cache_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"

    def test_pooled_profiles_are_usable(self):
        """WorkloadProfiles crossing the process boundary keep every figure
        view working (spec repickles by registry key; the memory view uses
        bytes captured at profile time)."""
        suite = executor.run_suite(["TLSTM", "KGNNL"], scale="test", jobs=2,
                                   cache=None)
        for key in ("TLSTM", "KGNNL"):
            profile = suite[key]
            assert profile.spec.key == key
            assert sum(profile.op_breakdown().values()) == pytest.approx(1.0)
            assert profile.memory_footprint()["model_bytes"] > 0
            assert profile.launch_count > 0

    def test_scaling_points_parallel_equals_serial(self):
        points = [("TLSTM", 1), ("TLSTM", 2)]
        serial = executor.run_scaling_points(points, jobs=1, cache=None)
        pooled = executor.run_scaling_points(points, jobs=2, cache=None)
        assert [p.epoch_time_s for p in serial] == \
            [p.epoch_time_s for p in pooled]
        assert [p.grad_bytes for p in serial] == \
            [p.grad_bytes for p in pooled]

    def test_benchmark_suite_report(self):
        report = executor.benchmark_suite(keys=["TLSTM", "KGNNL"],
                                          scale="test", jobs=2)
        assert report["suite"] == ["TLSTM", "KGNNL"]
        assert report["warm_cache_hits"] == 2
        assert report["cold_serial_s"] > 0
        assert report["warm_cache_s"] > 0
        # the acceptance bar is 5x on the full suite; even a two-workload
        # test-scale suite replays far faster than it recomputes
        assert report["warm_speedup"] > 5.0
