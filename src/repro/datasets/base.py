"""Shared dataset plumbing.

Every dataset module exposes a ``load_*`` function returning a small
dataclass with the graphs/features/labels plus a :class:`DatasetInfo`
recording what it substitutes for and how far it is scaled down from the
original (single-CPU-core environment).  Inter-dataset ratios that the
paper's findings depend on — e.g. NowPlaying feature vectors being 10x wider
than MovieLens — are preserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DatasetInfo:
    """Provenance record for a synthetic dataset."""

    name: str
    substitutes_for: str
    #: linear scale factor vs. the original (nodes/samples), approximate.
    scale: float
    notes: str = ""


def train_val_test_split(
    n: int, rng: np.random.Generator, train: float = 0.7, val: float = 0.15
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    order = rng.permutation(n)
    n_train = int(n * train)
    n_val = int(n * val)
    return (
        np.sort(order[:n_train]),
        np.sort(order[n_train : n_train + n_val]),
        np.sort(order[n_train + n_val :]),
    )


def sparse_bag_of_words(
    num_rows: int,
    num_features: int,
    nnz_per_row: int,
    rng: np.random.Generator,
    skew: float = 1.1,
) -> np.ndarray:
    """Binary bag-of-words features with Zipfian word popularity.

    Dense float32 output (the H2D copies the paper instruments transfer the
    dense tensor), but with realistic ~99% sparsity like citation datasets.

    Each row draws ``k = poisson(nnz_per_row)`` distinct words the way
    ``rng.choice(num_features, k, replace=False, p=probs)`` does, inlined so
    the Zipf CDF is summed once per call instead of once per row: ``k``
    uniforms are looked up in the CDF, and while some word repeats, the
    words found get probability zero and the shortfall is drawn from the
    re-normalized rest.  The draws and the words are ``choice``'s own.
    """
    ranks = np.arange(1, num_features + 1, dtype=np.float64)
    probs = ranks ** (-skew)
    probs /= probs.sum()
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    out = np.zeros((num_rows, num_features), dtype=np.float32)
    for line in out:
        k = min(max(1, int(rng.poisson(nnz_per_row))), num_features)
        words = cdf.searchsorted(rng.random(k), side="right")
        found = len(set(words.tolist()))
        while found < k:
            rest = probs.copy()
            rest[words] = 0.0
            rest.cumsum(out=rest)
            rest /= rest[-1]
            # a word of probability zero is never drawn: new ones are new
            new = rest.searchsorted(rng.random(k - found), side="right")
            found += len(set(new.tolist()))
            words = np.concatenate([words, new])
        line[words] = 1.0
    return out
