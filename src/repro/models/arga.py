"""ARGA: Adversarially Regularized Graph Autoencoder (Pan et al.).

Encoder: two GCN layers producing node embeddings.  Decoder: inner-product
reconstruction of the adjacency.  A small MLP discriminator adversarially
regularizes the embedding toward a Gaussian prior.  Trained full-batch for
node clustering on citation graphs — the paper excludes it from multi-GPU
scaling because the whole graph is shipped to the GPU every iteration, which
our training step reproduces (it re-transfers features + adjacency, feeding
the Figure 7/8 sparsity measurements).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.citation import CitationDataset
from ..tensor import SparseTensor, Tensor, functional as F, nn
from ..tensor.optim import Adam
from .layers import GCNConv, InnerProductDecoder


class ARGAEncoder(nn.Module):
    def __init__(self, in_features: int, hidden: int, out: int) -> None:
        super().__init__()
        self.conv1 = GCNConv(in_features, hidden, dynamic_norm=True)
        self.conv2 = GCNConv(hidden, out, dynamic_norm=True)
        self.act = nn.PReLU()

    def forward(self, adj: SparseTensor, x: Tensor) -> Tensor:
        h = self.act(self.conv1(adj, x))
        return self.conv2(adj, h)


class Discriminator(nn.Module):
    def __init__(self, embed_dim: int, hidden: int = 64) -> None:
        super().__init__()
        self.net = nn.Sequential(
            nn.Linear(embed_dim, hidden),
            nn.ReLU(),
            nn.Linear(hidden, hidden),
            nn.ReLU(),
            nn.Linear(hidden, 1),
        )

    def forward(self, z: Tensor) -> Tensor:
        return self.net(z)


class ARGA(nn.Module):
    def __init__(self, in_features: int, hidden: int = 32, embed: int = 16) -> None:
        super().__init__()
        self.encoder = ARGAEncoder(in_features, hidden, embed)
        self.decoder = InnerProductDecoder()
        self.discriminator = Discriminator(embed)
        self.embed_dim = embed

    def encode(self, adj: SparseTensor, x: Tensor) -> Tensor:
        return self.encoder(adj, x)

    def reconstruct(self, z: Tensor) -> Tensor:
        return self.decoder(z)


@dataclass
class ARGAWorkload:
    """Full-batch ARGA training bound to one citation dataset."""

    model: ARGA
    dataset: CitationDataset
    optimizer: Adam
    disc_optimizer: Adam
    device: object = None
    #: host-side artifacts (normalized adjacency, dense label matrix, sort
    #: keys, pos_weight): pure functions of the immutable dataset graph,
    #: built once per workload, as the reference ARGA builds its
    #: ``adj_label`` once before training
    _prep_host: object = None

    @classmethod
    def build(cls, dataset: CitationDataset, device=None, hidden: int = 32,
              embed: int = 16, lr: float = 1e-3) -> "ARGAWorkload":
        model = ARGA(dataset.feature_dim, hidden, embed)
        if device is not None:
            model.to(device)
        enc_params = list(model.encoder.parameters())
        disc_params = list(model.discriminator.parameters())
        return cls(
            model=model,
            dataset=dataset,
            optimizer=Adam(enc_params, lr=lr),
            disc_optimizer=Adam(disc_params, lr=lr),
            device=device,
        )

    def _prepare(self) -> tuple[SparseTensor, Tensor, np.ndarray, float]:
        """Ship the full graph to the device (ARGA's defining behaviour).

        The host-side artifacts (normalized adjacency, dense label matrix,
        coalesce keys) are pure functions of the immutable dataset graph and
        are built on the first call; every device-visible emission (the H2D
        copies, the coalesce sort, the reductions) still happens per epoch.
        The label matrix lives as long as the workload whatever the
        analysis-cache setting, so the memory report does not depend on it.
        """
        ds = self.dataset
        x = Tensor(ds.features, name="features").to(self.device, "arga.features")
        if self._prep_host is None:
            adj_host = ds.graph.adjacency("sym", add_self_loops=True)
            # seed the transpose so every epoch's .to() carries the cached
            # CSC view instead of rebuilding it device-side
            adj_host.t()
            target = (ds.graph.csr().toarray() > 0).astype(np.float32)
            np.fill_diagonal(target, 1.0)
            pos = target.sum()
            pos_weight = float((target.size - pos) / max(pos, 1.0))
            keys = ds.graph.dst * ds.graph.num_nodes + ds.graph.src
            self._prep_host = (adj_host, target, keys, pos_weight)
        adj_host, target, keys, pos_weight = self._prep_host
        adj = adj_host.to(self.device)
        if self.device is not None:
            self.device.h2d(target, "arga.adj_label")
            # PyG coalesces the freshly transferred edge index: a device
            # radix sort of the 64-bit (row, col) keys.
            from ..tensor.ops import sort as sort_ops
            from ..tensor.ops.base import launch_reduction

            sort_ops.launch_sort(self.device, "coalesce_edge_sort",
                                 int(keys.size), 2, keys=keys, key_bits=64)
            # loss normalization and pos_weight are computed on the device
            # from the dense label matrix: two full-matrix reductions
            launch_reduction(self.device, "reduce_adj_sum", int(target.size), 1)
            launch_reduction(self.device, "reduce_norm_const", int(target.size), 1)
        return adj, x, target, pos_weight

    def train_epoch(self, rng: np.random.Generator) -> dict[str, float]:
        adj, x, target, pos_weight = self._prepare()
        model = self.model

        # --- reconstruction + generator step -------------------------------
        self.optimizer.zero_grad()
        z = model.encode(adj, x)
        logits = model.reconstruct(z)
        recon = F.binary_cross_entropy_with_logits(logits, target,
                                                   pos_weight=pos_weight)
        # generator wants the discriminator to call embeddings "real"
        d_fake = model.discriminator(z)
        gen = F.binary_cross_entropy_with_logits(
            d_fake, np.ones_like(d_fake.data)
        )
        loss = recon + gen * 0.1
        loss.backward()
        self.optimizer.step()

        # --- discriminator step ----------------------------------------------
        self.disc_optimizer.zero_grad()
        prior = Tensor(
            rng.normal(size=(x.shape[0], model.embed_dim)).astype(np.float32)
        ).to(self.device, "arga.prior")
        d_real = model.discriminator(prior)
        d_fake = model.discriminator(z.detach())
        d_loss = F.binary_cross_entropy_with_logits(
            d_real, np.ones_like(d_real.data)
        ) + F.binary_cross_entropy_with_logits(
            d_fake, np.zeros_like(d_fake.data)
        )
        d_loss.backward()
        self.disc_optimizer.step()

        # reconstruction-quality metrics over the dense prediction (the
        # reference loop logs accuracy/AP each epoch): sigmoid + threshold +
        # three full-matrix reductions on the device
        if self.device is not None:
            from ..tensor.ops.base import launch_elementwise, launch_reduction

            n2 = int(target.size)
            launch_elementwise(self.device, "ew_recon_sigmoid", n2, 1,
                               kind="unary", flops_per_elem=3.0)
            launch_elementwise(self.device, "ew_recon_threshold", n2, 2,
                               kind="compare")
            launch_reduction(self.device, "reduce_recon_correct", n2, 1)
            launch_reduction(self.device, "reduce_recon_pos", n2, 1)
            launch_reduction(self.device, "reduce_recon_ap", n2, 1)

        # node-clustering evaluation (ARGA's task): a few k-means rounds on
        # the embeddings, as the reference training loop runs per epoch
        nmi_proxy = self._cluster_quality(z.detach(), rng)

        return {
            "loss": float(loss.item()),
            "recon": float(recon.item()),
            "disc": float(d_loss.item()),
            "cluster_spread": nmi_proxy,
        }

    def _cluster_quality(self, z: Tensor, rng: np.random.Generator,
                         iters: int = 3) -> float:
        """Device k-means over the embeddings (reduction-heavy, as profiled)."""
        from ..tensor import no_grad

        k = self.dataset.num_classes
        with no_grad():
            data = z.data
            centers = data[rng.choice(data.shape[0], size=k, replace=False)]
            c = Tensor(centers, device=self.device, _skip_copy=True)
            for _ in range(iters):
                # squared distances: ||z||^2 - 2 z.c + ||c||^2
                cross = F.matmul(z, c.T)
                z_norm = F.sum(z * z, axis=1, keepdims=True)
                c_norm = F.sum(c * c, axis=1, keepdims=True)
                dist = z_norm - cross * 2.0 + c_norm.T
                assign = dist.argmax(axis=1)  # reduction kernel (argmin)
                new_centers = np.stack([
                    data[assign == j].mean(axis=0) if np.any(assign == j)
                    else c.data[j]
                    for j in range(k)
                ])
                from ..tensor.ops.scattergather import launch_scatter

                launch_scatter(self.device, "kmeans_center_update",
                               np.asarray(assign).reshape(-1), data.shape[1])
                c = Tensor(new_centers.astype(np.float32), device=self.device,
                           _skip_copy=True)
            spread = float(np.mean(np.min(
                ((data[:, None, :] - c.data[None, :, :]) ** 2).sum(-1), axis=1
            )))
        return spread

    def embeddings(self) -> np.ndarray:
        from ..tensor import no_grad

        with no_grad():
            adj, x, _, _ = self._prepare()
            return self.model.encode(adj, x).data
