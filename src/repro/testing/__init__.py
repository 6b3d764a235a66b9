"""Differential correctness harness for the reproduction.

Three pillars, each mechanically checkable:

* :mod:`.gradcheck` — every ``Function.backward`` against fp64 central
  differences;
* :mod:`.golden` — every simulated output the figures rest on against a
  committed JSON snapshot, one table of families
  (``python -m repro golden --update``);
* :mod:`.invariants` — every simulated launch/transfer against the GPU
  model's physical-consistency invariants ("strict mode").

Plus :mod:`.launch_sequences`, a synthetic launch-sequence generator
(Hypothesis strategy and seeded plain generator) used by the kernel-fusion
and replay property tests.
"""

from .gradcheck import (
    GradcheckError,
    GradcheckResult,
    gradcheck,
    gradcheck_module,
)
from .golden import (
    FAMILIES,
    GoldenFamily,
    StreamRecorder,
    capture_fingerprint,
    fingerprint_workload,
    fused_fingerprint,
    golden_dir,
)
from .invariants import (
    InvariantChecker,
    InvariantViolation,
    check_descriptor,
    check_launch,
    check_stalls,
    check_transfer,
    strict_mode,
)
from .launch_sequences import (
    EPOCH_BOUNDARY,
    make_launch,
    make_transfer,
    random_events,
)

__all__ = [
    "EPOCH_BOUNDARY",
    "FAMILIES",
    "GoldenFamily",
    "GradcheckError",
    "GradcheckResult",
    "InvariantChecker",
    "InvariantViolation",
    "StreamRecorder",
    "capture_fingerprint",
    "check_descriptor",
    "check_launch",
    "check_stalls",
    "check_transfer",
    "fingerprint_workload",
    "fused_fingerprint",
    "golden_dir",
    "gradcheck",
    "gradcheck_module",
    "make_launch",
    "make_transfer",
    "random_events",
    "strict_mode",
]
