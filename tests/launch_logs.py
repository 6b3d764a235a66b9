"""Synthetic event logs (and their launch tables) for property tests.

A log is what a device appends while observed: ``("K", launch_id, start_s,
descriptor, analysis_record)`` per launch and ``("T", TransferRecord)`` per
copy, on an advancing clock.  Launches draw their descriptor and record
from a small pool, as memoized launch sites and analysis-cache hits share
theirs, so one name easily passes the 50-invocation sampling cap; a pool
record may take no time at all.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.gpu import (
    AnalysisRecord,
    KernelDescriptor,
    MemoryMetrics,
    OpClass,
    StallBreakdown,
    TransferRecord,
)
from repro.gpu.timing import TimingResult
from repro.profiling import LaunchTable
from repro.profiling.table import COMPONENTS, STALL_REASONS

NAMES = ("gemm_fwd", "gather", "scatter_bwd")
OPS = (OpClass.GEMM, OpClass.GATHER, OpClass.SCATTER, OpClass.ELEMENTWISE)
PHASES = ("forward", "backward", "optimizer")

_unit = st.floats(min_value=0.0, max_value=1.0)
_amount = st.floats(min_value=0.0, max_value=1e9)
_duration = st.one_of(st.just(0.0), st.floats(min_value=1e-7,
                                               max_value=1e-3))


@st.composite
def launch_sites(draw):
    """One (descriptor, analysis record) pair."""
    desc = KernelDescriptor(
        name=draw(st.sampled_from(NAMES)), op_class=draw(st.sampled_from(OPS)),
        threads=256, fp32_flops=draw(_amount), int32_iops=draw(_amount),
        ldst_instrs=draw(st.floats(min_value=1.0, max_value=1e9)),
        phase=draw(st.sampled_from(PHASES)))
    timing = TimingResult(
        cycles=0.0, duration_s=draw(_duration),
        instructions=draw(_amount), fp32_instrs=draw(_amount),
        int32_instrs=draw(_amount), ldst_instrs=desc.ldst_instrs,
        control_instrs=0.0, ipc=draw(st.floats(0.0, 4.0)),
        occupancy=draw(_unit), bound="issue",
        components={k: draw(_amount) for k in COMPONENTS})
    memory = MemoryMetrics(
        divergent_load_fraction=draw(_unit),
        lines_per_warp=draw(st.floats(1.0, 32.0)),
        l1_hit_rate=draw(_unit), l2_hit_rate=draw(_unit),
        l2_bytes=draw(_amount), dram_bytes=draw(_amount))
    stalls = StallBreakdown(*(draw(_unit) for _ in STALL_REASONS))
    return desc, AnalysisRecord(memory=memory, timing=timing, stalls=stalls)


@st.composite
def event_logs(draw, max_events: int = 150):
    """A log: launches from a pool of sites, with transfers between."""
    pool = draw(st.lists(launch_sites(), min_size=1, max_size=4))
    events = draw(st.lists(st.integers(-1, len(pool) - 1),
                           max_size=max_events))
    clock, entries = 0.0, []
    for i, event in enumerate(events):
        clock += 1e-6 * (i % 3)
        if event < 0:
            nbytes = draw(st.integers(0, 1 << 20))
            record = TransferRecord(
                direction=draw(st.sampled_from(("h2d", "d2h"))),
                nbytes=nbytes, num_values=nbytes // 4,
                num_zeros=draw(st.integers(0, nbytes // 4)),
                label=draw(st.sampled_from(("", "features", "labels"))),
                start_s=clock, duration_s=draw(_duration), device_id=0)
            entries.append(("T", record))
            clock += record.duration_s
        else:
            desc, record = pool[event]
            entries.append(("K", i, clock, desc, record))
            clock += record.timing.duration_s
    return entries


@st.composite
def windows(draw, max_events: int = 150):
    """A log cut into consecutive windows (some empty, some with only
    transfers, names first seen in a later one)."""
    entries = draw(event_logs(max_events))
    cuts = sorted(draw(st.lists(st.integers(0, len(entries)), max_size=4)))
    bounds = [0, *cuts, len(entries)]
    return [entries[a:b] for a, b in zip(bounds, bounds[1:])]


def launch_tables(max_events: int = 40):
    return event_logs(max_events).map(LaunchTable.of)
