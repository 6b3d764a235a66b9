"""Synthetic MovieLens-style user-item graph (the paper's MVL dataset) for
the PinSAGE workload.

A bipartite heterograph with "watched"/"watched-by" edge types, Zipfian item
popularity, dense item features (genre one-hots + title embedding block) and
integer timestamps, scaled ~5x down from MovieLens-1M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph import HeteroGraph, generators
from .base import DatasetInfo

#: item-feature rows drawn at a time: bounds the float64 draws held at once
_FEATURE_BLOCK_ROWS = 256


@dataclass
class InteractionDataset:
    info: DatasetInfo
    graph: HeteroGraph
    item_features: np.ndarray
    #: per-interaction arrays, time-ordered
    users: np.ndarray
    items: np.ndarray
    timestamps: np.ndarray

    @property
    def num_users(self) -> int:
        return self.graph.num_nodes("user")

    @property
    def num_items(self) -> int:
        return self.graph.num_nodes("item")

    @property
    def feature_dim(self) -> int:
        return int(self.item_features.shape[1])


def _item_features(num_items: int, feature_dim: int, sparsity: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Dense item features: a low-rank "embedding" block plus categorical
    one-hots, with zero entries controlled so H2D sparsity matches the
    family.

    The values of ``normal((num_items, feature_dim)).astype(float32)`` with
    the entries where ``random((num_items, feature_dim)) < sparsity``
    zeroed, drawn in row blocks straight into the float32 array (all the
    normals, then all the uniforms), so neither float64 matrix is held.
    """
    latent = np.empty((num_items, feature_dim), dtype=np.float32)
    blocks = [latent[start:start + _FEATURE_BLOCK_ROWS]
              for start in range(0, num_items, _FEATURE_BLOCK_ROWS)]
    for block in blocks:
        block[...] = rng.normal(size=block.shape)
    for block in blocks:
        np.putmask(block, rng.random(block.shape) < sparsity, 0.0)
    return latent


def _build(
    name: str,
    substitutes_for: str,
    num_users: int,
    num_items: int,
    num_interactions: int,
    feature_dim: int,
    scale: float,
    seed: int,
    feature_sparsity: float,
) -> InteractionDataset:
    rng = np.random.default_rng(seed)
    users, items = generators.bipartite_interactions(
        num_users, num_items, num_interactions, rng
    )
    order = rng.permutation(users.size)
    users, items = users[order], items[order]
    timestamps = np.sort(rng.integers(0, 1 << 30, size=users.size))

    latent = _item_features(num_items, feature_dim, feature_sparsity, rng)
    graph = HeteroGraph(
        num_nodes={"user": num_users, "item": num_items},
        edges={
            ("user", "watched", "item"): (users, items),
            ("item", "watched-by", "user"): (items, users),
        },
    )
    info = DatasetInfo(name=name, substitutes_for=substitutes_for, scale=scale,
                       notes="Zipfian item popularity; dense low-rank features")
    return InteractionDataset(
        info=info,
        graph=graph,
        item_features=latent,
        users=users,
        items=items,
        timestamps=timestamps,
    )


def load_movielens(seed: int = 0) -> InteractionDataset:
    """MVL: ~5x scaled MovieLens-1M (6040 users / 3706 movies / 1M ratings)."""
    return _build(
        name="movielens",
        substitutes_for="MovieLens-1M (MVL)",
        num_users=1208,
        num_items=741,
        num_interactions=30000,
        feature_dim=256,
        scale=0.2,
        seed=seed,
        feature_sparsity=0.26,
    )


def load_nowplaying(seed: int = 0) -> InteractionDataset:
    """NWP: NowPlaying-RS equivalent.

    The property the paper's analysis hinges on: NWP item feature vectors are
    10x wider than MVL's (which flips PSAGE's op mix toward elementwise) and
    its transfers are denser (11% vs 22% zeros in Figure 7).
    """
    return _build(
        name="nowplaying",
        substitutes_for="NowPlaying-RS (NWP)",
        num_users=2000,
        num_items=8000,  # NowPlaying's track catalog dwarfs MVL's movies
        num_interactions=90000,
        feature_dim=2560,  # exactly 10x MVL
        scale=0.02,
        seed=seed + 1,
        feature_sparsity=0.115,
    )
