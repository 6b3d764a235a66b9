"""Item recommendation with PinSAGE on the synthetic MovieLens graph.

Run:  python examples/recommendation_pinsage.py

Trains PinSAGE with max-margin ranking on random-walk-sampled neighborhoods
of the item-item co-interaction graph, then retrieves nearest neighbors for
a few query movies — and shows the sampler's sorting cost, the effect the
paper highlights for this workload.
"""

import numpy as np

from repro.datasets import load_movielens
from repro.gpu import SimulatedGPU
from repro.models import PinSAGEWorkload
from repro.profiling import KernelProfiler, LaunchTable


def main() -> None:
    dataset = load_movielens()
    print(f"dataset: {dataset.info.substitutes_for}")
    print(f"  users {dataset.num_users}, items {dataset.num_items},"
          f" interactions {dataset.users.size}, feature dim {dataset.feature_dim}\n")

    device = SimulatedGPU()
    workload = PinSAGEWorkload.build(dataset, device=device, batch_size=64,
                                     batches_per_epoch=6, lr=5e-3)
    print(f"item-item co-interaction graph: {workload.item_graph}\n")

    rng = np.random.default_rng(0)
    with device.observe() as window:
        for epoch in range(4):
            metrics = workload.train_epoch(rng)
            print(f"epoch {epoch}: margin loss {metrics['loss']:.4f}")

        # retrieval: embed a catalog slice and find neighbors for queries
        catalog = np.arange(min(256, dataset.num_items))
        embeddings = workload.embed_items(catalog, rng)
    embeddings /= np.linalg.norm(embeddings, axis=1, keepdims=True) + 1e-9

    print("\nnearest neighbors by embedding similarity:")
    for query in (3, 17, 42):
        scores = embeddings @ embeddings[query]
        top = np.argsort(-scores)[1:4]
        pretty = ", ".join(f"item {catalog[i]} ({scores[i]:.2f})" for i in top)
        print(f"  item {catalog[query]:>3} -> {pretty}")

    profiler = KernelProfiler()
    profiler.on_launch(LaunchTable.of(window.entries()))
    shares = profiler.op_time_breakdown()
    print(f"\nsampler sorting cost: {shares['Sort'] * 100:.1f}% of GPU time"
          f" (the paper reports 20.7% for PSAGE-MVL)")


if __name__ == "__main__":
    main()
