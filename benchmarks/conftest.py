"""Shared fixtures for the figure-regeneration benchmarks.

Profiling the full suite takes ~15 s of wall time; every figure derives from
the same profiled run (as in the paper, where one nvprof campaign feeds all
the analyses), so the suite profile is computed once per benchmark session.
"""

import pytest

from repro import GNNMark
from repro.core import executor
from repro.train import ddp


def pytest_collection_modifyitems(items):
    """Everything under benchmarks/ profiles the full suite — mark it slow
    so `pytest -m 'not slow'` (the default addopts) skips it."""
    for item in items:
        item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def mark() -> GNNMark:
    return GNNMark(scale="profile", seed=0)


@pytest.fixture(scope="session")
def suite(mark):
    """One profiled training epoch of every workload (Figures 2-8)."""
    return mark.characterize_suite(epochs=1)


@pytest.fixture(scope="session")
def scaling(mark):
    """Every DDP workload's scaling study at 1/2/4 simulated GPUs: its
    replica streams, each simulated once, and the strong (Figure 9) and
    weak points that are arithmetic over them."""
    return executor.suite("scaling", ddp.DDP_KEYS, gpu_counts=(1, 2, 4),
                          scale="scaling", epochs=1, seed=mark.seed)


def run_once(benchmark, fn):
    """Benchmark a derivation exactly once (the run itself is deterministic)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
