"""Weak scaling across 1/2/4 GPUs (the paper's stated future work).

Per-GPU batch fixed, global batch grows with N: per-device compute stays
constant, so efficiency T(1)/T(N) isolates the cost of the gradient
collectives — near 1.0 when allreduce hides behind compute, below it when
gradient traffic bites.
"""

import pytest

from conftest import run_once
from repro.train.ddp import epoch_times

WORKLOADS = ("DGCN", "STGCN", "TLSTM", "GW")


def test_weak_scaling_efficiency(benchmark, scaling):
    """Reads the weak points of the session's scaling studies: they are
    arithmetic over the split-1 streams Figure 9 already simulated."""
    def run():
        weak = epoch_times(scaling, "weak")
        rows = {}
        for key in WORKLOADS:
            times = weak[key]
            rows[key] = {n: times[1] / times[n] for n in times}
        return rows

    rows = run_once(benchmark, run)
    print("\nweak-scaling efficiency (T1/TN, 1.0 = perfect):")
    for key, row in rows.items():
        print(f"  {key:<6} " + "  ".join(f"{n}GPU {row[n]:.2f}"
                                         for n in sorted(row)))

    for key, row in rows.items():
        assert row[1] == pytest.approx(1.0)
        # efficiency cannot exceed 1 and only degrades with more devices
        assert row[4] <= row[2] + 0.02, key
        assert row[4] <= 1.0 + 1e-9, key
        # compute-per-device is constant, so even 4 GPUs stay above 50%
        assert row[4] > 0.5, key
