"""Traffic forecasting with STGCN on the synthetic METR-LA sensor network.

Run:  python examples/traffic_forecasting.py

Trains the spatio-temporal graph convolutional network to predict sensor
speeds 15 minutes ahead from one hour of history, reports the validation
MAE each epoch, and shows why this workload is convolution-dominated.
"""

import numpy as np

from repro.datasets import load_metr_la
from repro.gpu import SimulatedGPU
from repro.models import STGCNWorkload
from repro.profiling import KernelProfiler, LaunchTable


def main() -> None:
    dataset = load_metr_la(num_steps=400)
    print(f"dataset: {dataset.info.substitutes_for}")
    print(f"  sensors {dataset.graph.num_nodes}, timesteps {dataset.signal.shape[0]},"
          f" history {dataset.history} steps, horizon {dataset.horizon} steps\n")

    device = SimulatedGPU()
    workload = STGCNWorkload.build(dataset, device=device, batch_size=8,
                                   batches_per_epoch=8, lr=2e-3)

    rng = np.random.default_rng(0)
    print(f"{'epoch':>5} {'train mse':>12} {'val MAE':>10} {'sim ms/epoch':>14}")
    with device.observe() as window:
        for epoch in range(5):
            t0 = device.elapsed_s()
            metrics = workload.train_epoch(rng)
            mae = workload.evaluate_mae(num_batches=2)
            sim_ms = (device.elapsed_s() - t0) * 1e3
            print(f"{epoch:>5} {metrics['loss']:>12.4f} {mae:>10.4f}"
                  f" {sim_ms:>14.2f}")
    profiler = KernelProfiler()
    profiler.on_launch(LaunchTable.of(window.entries()))

    print("\noperation breakdown (conv dominates, as in the paper's Figure 2):")
    for cat, share in profiler.op_time_breakdown().items():
        if share > 0.01:
            print(f"  {cat:<12} {share * 100:5.1f}%")


if __name__ == "__main__":
    main()
