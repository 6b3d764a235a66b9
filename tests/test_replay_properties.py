"""Property tests: compiled replay is indistinguishable from per-event replay.

:func:`repro.gpu.graph_capture.replay_epoch` runs a plan's compiled view
(kernel/transfer steps plus one allocator delta) when nothing watches single
pool events and the pool's cached free blocks cover what the plan takes from
them; otherwise it re-issues every event.  The per-event path is the
reference here, forced by a pool tap.  The compiled view runs twice: with
the device's event log closed (the tight clock loop) and open (the loop that
also logs each launch and transfer).  From random clocks (host ahead of,
level with and behind the device), random stats and a randomly pre-warmed
pool, all three must leave identical clocks, launch counter, ``DeviceStats``
and every ``MemoryPool`` field, replay after replay, for raw and fused
plans; the two logging replays must log identical entries (launch ids,
starts, descriptors, analysis records, transfers); and exactly the replays
whose allocations would reserve new device memory must take the per-event
path.
"""

import dataclasses

import numpy as np
import pytest

from repro.gpu import SimulatedGPU
from repro.gpu import memory as gpu_memory
from repro.gpu.device import DeviceStats
from repro.gpu.graph_capture import EpochPlan, fuse_plan, replay_epoch
from repro.testing.launch_sequences import (
    EPOCH_BOUNDARY,
    POOL_SIZES,
    make_alloc,
    make_free,
    make_launch,
    make_transfer,
    random_events,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.testing.launch_sequences import events  # noqa: E402

SIM = SimulatedGPU().sim

FLOAT_STATS = tuple(f.name for f in dataclasses.fields(DeviceStats)
                    if isinstance(f.default, float))
INT_STATS = tuple(f.name for f in dataclasses.fields(DeviceStats)
                  if isinstance(f.default, int))


@dataclasses.dataclass
class Start:
    """Device state before the first replay."""

    clock: float
    host: float
    launch_counter: int
    stats: dict
    #: request sizes allocated before the plan; every other one is freed
    #: again, leaving cached blocks on the free lists
    warm: list


def make_plan(seq) -> EpochPlan:
    # a captured plan covers exactly one epoch: no boundary markers
    seq = [event for event in seq if event is not EPOCH_BOUNDARY]
    kernels = sum(1 for event in seq if event[0] == "K")
    transfers = [event[1] for event in seq if event[0] == "T"]
    return EpochPlan(
        events=seq,
        metrics={"loss": 0.5},
        kernel_count=kernels,
        transfer_count=len(transfers),
        h2d_bytes=sum(r.nbytes for r in transfers if r.direction == "h2d"),
        d2h_bytes=sum(r.nbytes for r in transfers if r.direction == "d2h"),
        analysis_hits=kernels,
        analysis_misses=0,
    )


def make_device(start: Start) -> SimulatedGPU:
    device = SimulatedGPU()
    device.clock_s = start.clock
    device.host_clock_s = start.host
    device._launch_counter = start.launch_counter
    for name, value in start.stats.items():
        setattr(device.stats, name, value)
    pool = device.memory
    # a resident block keeps live bytes positive whatever the plan frees
    pool.alloc(1 << 30, label="params", phase="setup")
    blocks = [(pool.alloc(nbytes, label="warm"), nbytes)
              for nbytes in start.warm]
    for block, nbytes in blocks[::2]:
        pool.free(block, nbytes)
    pool.end_epoch()
    return device


def state(device: SimulatedGPU) -> tuple:
    pool = {name: value for name, value in vars(device.memory).items()
            if name not in ("clock", "tap")}
    return (device.clock_s, device.host_clock_s, device._launch_counter,
            dataclasses.asdict(device.stats), pool)


def _ignore(_event) -> None:
    pass


def _ignore_sample(clock_s, live, reserved) -> None:
    pass


def check_replays(plan: EpochPlan, start: Start, rounds: int = 3) -> list:
    """Replay ``plan`` ``rounds`` times on three identical devices: compiled
    where possible with the event log closed and open, and per-event;
    returns the path each round took."""
    compiled, logged, reference = (make_device(start) for _ in range(3))
    reference.memory.tap = _ignore  # forces the per-event path
    paths = []
    with logged.observe() as seen, reference.observe() as expected:
        for _ in range(rounds):
            reserved = reference.memory.segment_allocs
            before = plan.event_replays
            assert replay_epoch(plan, reference) == plan.metrics
            assert plan.event_replays == before + 1
            # compiled replay is allowed exactly when every allocation of
            # the plan reuses a cached block
            covered = reference.memory.segment_allocs == reserved
            for device in (compiled, logged):
                counts = (plan.compiled_replays, plan.event_replays)
                assert replay_epoch(plan, device) == plan.metrics
                took = (plan.compiled_replays - counts[0],
                        plan.event_replays - counts[1])
                assert took == ((1, 0) if covered else (0, 1))
                assert state(device) == state(reference)
            paths.append("compiled" if covered else "events")
    assert seen.entries() == expected.entries()
    assert [e[0] for e in seen.entries()] == [
        e[0] for e in plan.events if e[0] in ("K", "T")] * rounds
    return paths


@st.composite
def starts(draw) -> Start:
    clock = draw(st.floats(min_value=0.0, max_value=1.0))
    gap = draw(st.floats(min_value=1e-12, max_value=1e-4))
    host = draw(st.sampled_from((clock + gap, clock, clock - gap)))
    stats = {name: draw(st.floats(min_value=0.0, max_value=10.0))
             for name in FLOAT_STATS}
    stats.update({name: draw(st.integers(min_value=0, max_value=10**6))
                  for name in INT_STATS})
    return Start(
        clock=clock,
        host=host,
        launch_counter=draw(st.integers(min_value=0, max_value=10**6)),
        stats=stats,
        warm=draw(st.lists(st.sampled_from(POOL_SIZES), max_size=16)),
    )


@given(seq=events(), start=starts(), fuse=st.booleans())
@settings(max_examples=150, deadline=None)
def test_compiled_replay_matches_per_event_hypothesis(seq, start, fuse):
    plan = make_plan(seq)
    check_replays(fuse_plan(plan, SIM) if fuse else plan, start)


def _random_start(rng: np.random.Generator) -> Start:
    clock = float(rng.random())
    gap = float(rng.random() * 1e-4)
    return Start(
        clock=clock,
        host=(clock + gap, clock, clock - gap)[int(rng.integers(3))],
        launch_counter=int(rng.integers(10**6)),
        stats={**{name: float(rng.random() * 10) for name in FLOAT_STATS},
               **{name: int(rng.integers(10**6)) for name in INT_STATS}},
        warm=[POOL_SIZES[int(i)]
              for i in rng.integers(len(POOL_SIZES), size=rng.integers(17))],
    )


def test_compiled_replay_matches_per_event_seeded():
    rng = np.random.default_rng(2024)
    paths = []
    for _ in range(30):
        plan = make_plan(random_events(rng, size=60))
        start = _random_start(rng)
        paths += check_replays(plan, start)
        paths += check_replays(fuse_plan(plan, SIM), start)
    # the generator must exercise both paths, not vacuously pass
    assert paths.count("compiled") > 20 and paths.count("events") > 20


# -- explicit cases -----------------------------------------------------------

def _start(warm) -> Start:
    return Start(clock=0.0, host=0.0, launch_counter=0, stats={}, warm=warm)


def test_plan_needing_more_cached_blocks_falls_back():
    # warm [512, 600, 512, 700, 512]: three 512 B blocks cached, 600 and 700
    # (both 1024 B blocks) stay live
    warm = [512, 600, 512, 700, 512]
    assert make_device(_start(warm)).memory.cached_blocks(512) == 3
    three = [make_alloc(100), make_alloc(512), make_alloc(300)]
    assert check_replays(make_plan(three), _start(warm), rounds=1) \
        == ["compiled"]
    four = three + [make_alloc(200)]
    assert check_replays(make_plan(four), _start(warm), rounds=1) \
        == ["events"]
    # a block freed inside the plan is reused by a later allocation, so
    # four allocations around one free need only three cached blocks
    churn = three[:2] + [make_free(512)] + three[2:] + [make_alloc(200)]
    assert make_plan(churn).pool_delta.need == ((512, 3),)
    assert check_replays(make_plan(churn), _start(warm), rounds=1) \
        == ["compiled"]
    # every replay keeps one more block than it returns: the free list
    # drains, and the third replay must reserve
    leak = [make_alloc(512), make_alloc(512), make_free(512)]
    assert check_replays(make_plan(leak), _start(warm), rounds=3) \
        == ["compiled", "compiled", "events"]


def test_watchers_force_the_per_event_path():
    plan = make_plan([make_launch(duration_s=1e-5), make_alloc(512),
                      make_transfer(duration_s=2e-5), make_free(512)])
    device = make_device(_start([512, 512]))
    tracker = gpu_memory.DeviceMemoryTracker(device)

    def replay(**kwargs) -> str:
        counts = (plan.compiled_replays, plan.event_replays)
        replay_epoch(plan, device, **kwargs)
        assert plan.compiled_replays + plan.event_replays == sum(counts) + 1
        return "compiled" if plan.compiled_replays > counts[0] else "events"

    assert replay() == "compiled"
    assert replay(tracker=tracker) == "compiled"  # no counter sink
    tracker.set_counter_sink(_ignore_sample)
    assert replay(tracker=tracker) == "events"
    tracker.close()
    with device.observe() as window:  # an open event log still compiles
        assert replay() == "compiled"
    assert [e[0] for e in window.entries()] == ["K", "T"]
    device.checker = _ignore  # strict mode checks every replayed event
    assert replay() == "events"
    device.checker = None
    device.memory.tap = _ignore
    assert replay() == "events"
    device.memory.tap = None
    assert replay() == "compiled"
