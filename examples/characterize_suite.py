"""Regenerate every table and figure of the paper in one run.

Run:  python examples/characterize_suite.py

Profiles one training epoch of all nine workload/dataset pairs on the
simulated V100 and prints Table I plus the Figure 2-8 views, then runs the
Figure 9 multi-GPU scaling study.  This is the script behind EXPERIMENTS.md.
Standard output is byte-stable; the host wall-clock times go to stderr.
"""

import sys
import time

from repro import GNNMark


def main() -> None:
    mark = GNNMark()

    print("=" * 70)
    print("Table I: the GNNMark suite")
    print("=" * 70)
    print(mark.render_table1())

    t0 = time.time()
    suite = mark.characterize_suite(epochs=1)
    print()
    print(f"(suite profiled in {time.time() - t0:.0f}s wall clock)",
          file=sys.stderr)
    print()

    for render in (
        mark.render_op_breakdown,
        mark.render_instruction_mix,
        mark.render_throughput,
        mark.render_stalls,
        mark.render_cache,
        mark.render_sparsity,
        mark.render_sparsity_timeline,
    ):
        print("=" * 70)
        print(render(suite))
        print()

    print("=" * 70)
    t0 = time.time()
    times = mark.scaling_study(epochs=1)
    print(f"(scaling study in {time.time() - t0:.0f}s wall clock)",
          file=sys.stderr)
    print(mark.render_scaling(times))


if __name__ == "__main__":
    main()
