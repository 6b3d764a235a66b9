"""Every workload's *fused* replay plan against its golden snapshot.

Fused plans intentionally diverge from the dispatch stream (adjacent
elementwise launches merge), so they carry their own snapshot family:
``tests/golden/fused_<KEY>.json`` pins the fused event-stream digest, the
fusion census and the work-conservation totals.  A failure means the fusion
pass changed what it merges or how it costs the result; if intentional,
regenerate with ``PYTHONPATH=src python -m repro golden --fused --update``.
"""

from __future__ import annotations

import json

import pytest

from repro.core.registry import WORKLOAD_KEYS
from repro.testing import golden


@pytest.mark.parametrize("key", WORKLOAD_KEYS)
def test_fused_plan_matches_golden(key):
    diffs = golden.verify("fused", [key])[key]
    assert not diffs, (
        f"{key} fused plan diverged from tests/golden/fused_{key}.json:\n  "
        + "\n  ".join(diffs)
        + "\nIf intentional: PYTHONPATH=src python -m repro golden"
        " --fused --update"
    )


def test_fused_snapshots_exist_for_whole_registry():
    missing = [k for k in WORKLOAD_KEYS
               if not golden.path("fused", k).exists()]
    assert not missing, f"no fused golden snapshot for {missing}"


def test_fused_snapshot_files_round_trip():
    for key in WORKLOAD_KEYS:
        original = golden.path("fused", key).read_text()
        fingerprint = golden.load("fused", key)
        assert golden.save("fused", key, fingerprint).read_text() == original
        assert json.dumps(fingerprint, indent=2, sort_keys=True) + "\n" \
            == original


def test_every_workload_actually_fuses():
    # the suite-wide claim in DESIGN.md §9: each workload's steady epoch
    # contains at least one fusible elementwise run
    for key in WORKLOAD_KEYS:
        snap = golden.load("fused", key)
        assert snap["fused_kernels"] >= 1, key
        assert snap["fused_members"] >= 2 * snap["fused_kernels"], key
        assert snap["fused_launch_count"] < snap["launch_count"], key
