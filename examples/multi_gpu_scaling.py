"""Multi-GPU strong scaling with simulated DDP (the paper's Figure 9).

Run:  python examples/multi_gpu_scaling.py [WORKLOAD ...]

Trains each workload on 1, 2 and 4 simulated V100s connected by NVLink,
using PyTorch-DDP semantics (split global batch, ring allreduce per step),
and prints the time-per-epoch speedups.  Each workload's study simulates
each distinct replica stream once.  Defaults to a contrasting trio: one
workload that scales (STGCN), one that stays flat (TLSTM) and one that
degrades (PSAGE-MVL, whose sampler replicates data across devices, so its
three points share one stream).
"""

import sys

from repro.profiling import format_scaling
from repro.train.ddp import epoch_times, scaling_study


def main() -> None:
    keys = sys.argv[1:] or ["STGCN", "TLSTM", "PSAGE-MVL"]
    studies = {}
    for key in keys:
        studies[key] = scaling_study(key, scale="scaling", epochs=1)
        for point in studies[key]["strong"]:
            print(f"{key:<11} {point['num_gpus']} GPU(s): epoch"
                  f" {point['epoch_time_s'] * 1e3:8.2f} ms"
                  f"  (compute {point['compute_time_s'] * 1e3:7.2f},"
                  f" allreduce {point['allreduce_time_s'] * 1e3:6.2f},"
                  f" {point['steps']} steps x"
                  f" {point['grad_bytes'] / 1e6:.2f} MB grads)")
    print()
    print(format_scaling(epoch_times(studies)))


if __name__ == "__main__":
    main()
