"""Every registry workload's kernel stream against its golden snapshot.

A failure here means the op stream a workload emits changed.  If the change
is intentional (new kernel, different lowering, fixed gradient), regenerate
the snapshots with `PYTHONPATH=src python -m repro golden --update` and
commit the JSON diff; if not, you just caught a silent math change.
"""

import json

import pytest

from repro.core.registry import WORKLOAD_KEYS
from repro.testing import golden


@pytest.mark.parametrize("key", WORKLOAD_KEYS)
def test_stream_matches_golden(key):
    diffs = golden.verify("stream", [key])[key]
    assert not diffs, (
        f"{key} kernel stream diverged from tests/golden/{key}.json:\n  "
        + "\n  ".join(diffs)
        + "\nIf intentional: PYTHONPATH=src python -m repro golden --update"
    )


def test_snapshots_exist_for_whole_registry():
    missing = [k for k in WORKLOAD_KEYS
               if not golden.path("stream", k).exists()]
    assert not missing, f"no golden snapshot for {missing}"


def test_snapshot_files_round_trip():
    # golden.save writes canonical JSON (sorted keys, trailing newline), so
    # re-saving a loaded snapshot must be byte-identical to the file on disk.
    for key in WORKLOAD_KEYS:
        original = golden.path("stream", key).read_text()
        fingerprint = golden.load("stream", key)
        assert golden.save("stream", key, fingerprint).read_text() == original
        assert json.dumps(fingerprint, indent=2, sort_keys=True) + "\n" == original
