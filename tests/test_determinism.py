"""Same workload + same seed => byte-identical kernel streams and losses.

This is the premise the golden snapshots stand on: if two in-process runs
diverge, cross-process snapshot comparison is meaningless.
"""

from __future__ import annotations

import pytest

from repro.testing import fingerprint_workload, golden

# cheapest representatives of the three framework styles: fused-SpMM (ARGA),
# gather/scatter batching (KGNNL), and per-node recursion (TLSTM)
CHEAP_KEYS = ("ARGA", "KGNNL", "TLSTM")


@pytest.mark.parametrize("key", CHEAP_KEYS)
def test_same_seed_same_stream(key):
    first = fingerprint_workload(key, scale="test", epochs=1, seed=0)
    second = fingerprint_workload(key, scale="test", epochs=1, seed=0)
    assert first["stream_digest"] == second["stream_digest"]
    assert first["losses"] == second["losses"]
    assert not golden.compare("stream", first, second)


def test_different_seed_different_stream():
    # Seed feeds parameter init and batch order; TLSTM's batch composition
    # determines its kernel stream, so a different seed must change the
    # digest (if it doesn't, the seed isn't actually plumbed through).
    base = fingerprint_workload("TLSTM", scale="test", epochs=1, seed=0)
    other = fingerprint_workload("TLSTM", scale="test", epochs=1, seed=1)
    assert base["stream_digest"] != other["stream_digest"]


class TestPoolIsolation:
    """The premise above must survive the executor's process pool: workloads
    sharing a pool must not share RNG state or device event logs."""

    def test_pool_workers_do_not_share_state(self):
        from repro.core import executor

        solo = {k: fingerprint_workload(k, scale="test", epochs=1, seed=0)
                for k in CHEAP_KEYS}
        # 2 workers, 3 workloads: at least one worker runs two workloads
        # back to back, so cross-contamination of the framework RNG or of a
        # device's launch/transfer logs would corrupt the second stream
        pooled = executor.suite("fingerprint", CHEAP_KEYS, jobs=2,
                                cache=None, scale="test", epochs=1, seed=0)
        for key in CHEAP_KEYS:
            assert pooled[key]["stream_digest"] == solo[key]["stream_digest"]
            assert pooled[key]["launch_count"] == solo[key]["launch_count"]
            assert pooled[key]["transfer_count"] == solo[key]["transfer_count"]
            assert pooled[key]["losses"] == solo[key]["losses"]

    def test_dirty_worker_state_cannot_leak_in(self):
        from repro.core import executor
        from repro.tensor import manual_seed

        solo = fingerprint_workload("TLSTM", scale="test", epochs=1, seed=0)
        manual_seed(999)  # simulate a worker left dirty by a previous task
        [again] = executor.run_tasks(
            [("fingerprint", dict(key="TLSTM", scale="test", epochs=1,
                                  seed=0))],
            jobs=1, cache=None,
        )
        assert again["stream_digest"] == solo["stream_digest"]
