"""Differential correctness harness for the reproduction.

Three pillars, each mechanically checkable:

* :mod:`.gradcheck` — every ``Function.backward`` against fp64 central
  differences;
* :mod:`.golden` — every registry workload's kernel stream against a
  committed JSON fingerprint (``python -m repro golden --update``);
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
    StreamRecorder,
    capture_fingerprint,
    compare_fingerprints,
    compare_fused_fingerprints,
    compare_trace_fingerprints,
    fingerprint_suite,
    fingerprint_workload,
    fused_fingerprint,
    fused_golden_path,
    golden_dir,
    golden_path,
    load_fused_golden,
    load_golden,
    load_trace_golden,
    save_fused_golden,
    save_golden,
    save_trace_golden,
    trace_golden_path,
    update_fused_goldens,
    update_goldens,
    update_trace_goldens,
    verify_fused_goldens,
    verify_golden,
    verify_goldens,
    verify_trace_goldens,
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
    "compare_fingerprints",
    "compare_fused_fingerprints",
    "compare_trace_fingerprints",
    "fingerprint_suite",
    "fingerprint_workload",
    "fused_fingerprint",
    "fused_golden_path",
    "golden_dir",
    "golden_path",
    "gradcheck",
    "gradcheck_module",
    "load_fused_golden",
    "load_golden",
    "load_trace_golden",
    "make_launch",
    "make_transfer",
    "random_events",
    "save_fused_golden",
    "save_golden",
    "save_trace_golden",
    "strict_mode",
    "trace_golden_path",
    "update_fused_goldens",
    "update_goldens",
    "update_trace_goldens",
    "verify_fused_goldens",
    "verify_golden",
    "verify_goldens",
    "verify_trace_goldens",
]
