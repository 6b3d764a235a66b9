"""Golden timeline traces: byte-identical across jobs, cache and reruns.

Trace fingerprints extend the golden-stream contract into the time domain:
a failure here means a kernel's *timestamp* moved on the simulated clock —
either the stream changed (test_golden_streams catches that too) or the
timing model drifted.  If intentional, regenerate with
`PYTHONPATH=src python -m repro golden --traces --update`.
"""

from __future__ import annotations

import json

import pytest

from repro.core import executor
from repro.core.registry import WORKLOAD_KEYS
from repro.gpu import analysis_cache
from repro.profiling import trace
from repro.testing import golden


def test_snapshots_exist_for_whole_registry():
    missing = [k for k in WORKLOAD_KEYS
               if not golden.path("trace", k).exists()]
    assert not missing, f"no golden trace for {missing}"


@pytest.mark.parametrize("key", WORKLOAD_KEYS)
def test_trace_matches_golden(key):
    diffs = golden.verify("trace", [key], cache=False)[key]
    assert not diffs, (
        f"{key} timeline diverged from tests/golden/trace_{key}.json:\n  "
        + "\n  ".join(diffs)
        + "\nIf intentional: PYTHONPATH=src python -m repro golden"
        " --traces --update"
    )


def test_snapshot_files_round_trip():
    # golden.save writes canonical JSON (sorted keys, trailing newline):
    # re-saving a loaded snapshot must be byte-identical.
    for key in WORKLOAD_KEYS:
        original = golden.path("trace", key).read_text()
        fingerprint = golden.load("trace", key)
        assert golden.save("trace", key, fingerprint).read_text() == original
        assert json.dumps(fingerprint, indent=2, sort_keys=True) + "\n" \
            == original


class TestDigestStability:
    """The acceptance bar: one digest, however the trace is produced."""

    def test_repeat_runs_identical(self):
        a = trace.trace_fingerprint("GW", scale="test")
        b = trace.trace_fingerprint("GW", scale="test")
        assert a == b

    def test_analysis_cache_on_off_identical(self):
        """Replayed launch timings must land on the exact same clock as the
        cold analytical pipeline — timestamps enter the digest."""
        analysis_cache.clear()
        with analysis_cache.override(True):
            warm = trace.trace_fingerprint("TLSTM", scale="test")
        with analysis_cache.override(False):
            cold = trace.trace_fingerprint("TLSTM", scale="test")
        assert warm == cold

    def test_parallel_jobs_identical(self):
        """--jobs 2 fans trace tasks to pool workers; digests must match the
        serial run byte-for-byte (no cache, so both paths really execute)."""
        keys = ["GW", "STGCN", "TLSTM"]
        serial = executor.suite("trace", keys, jobs=1, cache=False)
        parallel = executor.suite("trace", keys, jobs=2, cache=False)
        assert serial == parallel

    def test_profile_cache_replays_identical(self):
        from repro.core.cache import ProfileCache

        cache = ProfileCache()
        cold = executor.suite("trace", ["GW"], cache=cache)
        warm = executor.suite("trace", ["GW"], cache=cache)
        assert cache.hits >= 1
        assert cold == warm

    def test_multi_gpu_digest_stable(self):
        a = trace.trace_fingerprint("TLSTM", scale="test", num_gpus=2)
        b = trace.trace_fingerprint("TLSTM", scale="test", num_gpus=2)
        assert a == b
        assert a["span_counts"]["allreduce"] > 0
