"""Deterministic request generation: Poisson and bursty (MMPP) arrivals.

Every request is a pure function of ``(seed, arrival process, qps)`` — the
generator draws from seeded :class:`numpy.random.Generator` streams and never
touches the wall clock, so a serving run replays byte-identically across
processes and ``--jobs`` settings (the same RNG discipline the golden kernel
streams rely on).

Entity ids come from *per-user* child streams (``default_rng([seed, 1, user])``)
so each simulated user requests a reproducible item sequence regardless of how
the arrival process interleaves users.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.params import Param

#: supported arrival processes
ARRIVALS = ("poisson", "bursty")

#: the arrival process's parameters, as rows of ``serve_run``'s table
REQUESTS = Param("requests", 256, low=1, help="default: %(default)s")
QPS = Param("qps", 100.0, float, 0, above=True, help="mean arrival rate "
            "per simulated second (default: %(default)s)")
ARRIVAL = Param("arrival", "poisson", choices=ARRIVALS,
                help="bursty = 2-state MMPP")
NUM_USERS = Param("num_users", 64, low=1, cli=False)

# bursty = 2-state Markov-modulated Poisson process: the rate alternates
# between HIGH*qps and LOW*qps with exponential dwell times; the factors
# average to 1.0 over equal expected dwells, so the long-run rate is qps.
BURST_HIGH_FACTOR = 1.8
BURST_LOW_FACTOR = 0.2
BURST_DWELL_S = 0.25


@dataclass(frozen=True)
class Request:
    """One inference request: who asks for what, when (simulated seconds)."""

    index: int
    user: int
    entity: int
    arrival_s: float


def _poisson_gaps(n: int, qps: float, rng: np.random.Generator) -> np.ndarray:
    return rng.exponential(1.0 / qps, size=n)


def _bursty_gaps(n: int, qps: float, rng: np.random.Generator) -> np.ndarray:
    """Exact MMPP-2 inter-arrival times.

    The state holds for an exponential dwell; an arrival draw that overruns
    the remaining dwell is resampled from the next state's rate (legal by
    memorylessness), accumulating the dwell remainder into the gap.
    """
    high = bool(rng.integers(0, 2))
    dwell = float(rng.exponential(BURST_DWELL_S))
    gaps = np.empty(n)
    for i in range(n):
        gap = 0.0
        while True:
            rate = qps * (BURST_HIGH_FACTOR if high else BURST_LOW_FACTOR)
            draw = float(rng.exponential(1.0 / rate))
            if draw <= dwell:
                dwell -= draw
                gap += draw
                break
            gap += dwell
            high = not high
            dwell = float(rng.exponential(BURST_DWELL_S))
        gaps[i] = gap
    return gaps


def generate_requests(
    num_requests: int,
    qps: float,
    arrival: str = ARRIVAL.default,
    population: int = 1,
    num_users: int = NUM_USERS.default,
    seed: int = 0,
) -> list[Request]:
    """``num_requests`` seeded requests with nondecreasing arrival times."""
    for row, value in ((REQUESTS, num_requests), (QPS, qps),
                       (ARRIVAL, arrival), (NUM_USERS, num_users)):
        row.check(value)
    if population < 1:
        raise ValueError(f"population must be >= 1, got {population}")

    rng = np.random.default_rng([int(seed), 0])
    if arrival == "poisson":
        gaps = _poisson_gaps(num_requests, qps, rng)
    else:
        gaps = _bursty_gaps(num_requests, qps, rng)
    arrivals = np.cumsum(gaps)
    users = rng.integers(0, num_users, size=num_requests)

    streams: dict[int, np.random.Generator] = {}
    requests = []
    for i in range(num_requests):
        user = int(users[i])
        stream = streams.get(user)
        if stream is None:
            stream = streams[user] = np.random.default_rng(
                [int(seed), 1, user])
        requests.append(Request(
            index=i,
            user=user,
            entity=int(stream.integers(0, population)),
            arrival_s=float(arrivals[i]),
        ))
    return requests
