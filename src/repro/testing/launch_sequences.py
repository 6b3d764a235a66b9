"""Random launch-sequence generators for fusion and replay property tests.

The fusion pass (:func:`repro.gpu.graph_capture.fuse_events`) is a pure
function over captured epoch event lists, so its legality rules — never fuse
across a phase or epoch boundary, a reduction, a transfer, a device change,
or any non-elementwise kernel — are checkable on *synthetic* sequences
without building a workload.  Replay (:func:`repro.gpu.graph_capture.
replay_epoch`) is checkable the same way: its compiled and per-event paths
must leave identical clocks, stats and allocator state.  This module
provides:

* :func:`make_launch` / :func:`make_transfer` — single-event constructors
  with a given duration and otherwise dummy timing (fusion only reads
  descriptors and device ids, replay only durations and work counts);
* :func:`make_alloc` / :func:`make_free` — memory-pool events;
* :data:`EPOCH_BOUNDARY` — the synthetic epoch-boundary marker.  Real
  captured plans cover exactly one epoch so never contain one; the fusion
  pass treats every unknown event tag as a barrier, which this marker (and
  the property suite) pins down;
* :func:`events` — a shrinkable Hypothesis strategy over event lists
  (imported lazily so the package works without Hypothesis installed);
* :func:`random_events` — a plain seeded generator for non-Hypothesis reuse
  (fuzzing loops, benchmarks, notebooks).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..gpu.config import DEFAULT_SIMULATION
from ..gpu.kernel import (
    AccessPattern,
    KernelDescriptor,
    KernelLaunch,
    MemoryMetrics,
    OpClass,
    StallBreakdown,
    TransferRecord,
)
from ..gpu.memory import round_block

#: synthetic epoch-boundary event: any tag the replay/fusion machinery does
#: not recognise acts as a fusion barrier
EPOCH_BOUNDARY = ("E",)

PHASES = ("forward", "backward", "optimizer")

ELEMENTWISE_NAMES = ("add", "mul", "relu", "sigmoid", "dropout", "sgd_step")

#: pool-event request sizes: few enough that buckets repeat, spanning the
#: small (512 B quantum) and large (64 KiB quantum) pools
POOL_SIZES = (100, 512, 3000, 70_000, 1 << 20, (5 << 20) + 7)
POOL_LABELS = ("", "activation", "grad", "batch")
POOL_PHASES = ("", "forward", "backward", "serve")

#: kernel/transfer durations straddle the default launch overhead, so
#: replayed kernels are both host- and device-bound; a kernel as long as
#: the overhead leaves the host and device clocks exactly level
MAX_DURATION_S = 2e-5
TIE_DURATION_S = DEFAULT_SIMULATION.device.kernel_launch_overhead_s


def make_launch(
    name: str = "add",
    op_class: OpClass = OpClass.ELEMENTWISE,
    phase: str = "forward",
    device_id: int = 0,
    threads: int = 1024,
    block_size: int = 256,
    element_bytes: int = 4,
    fp32_flops: float = 1024.0,
    int32_iops: float = 0.0,
    ldst_instrs: float = 64.0,
    control_instrs: float = 32.0,
    bytes_read: float = 4096.0,
    bytes_written: float = 4096.0,
    reuse_factor: float = 1.0,
    compute_scale: float = 1.0,
    access: Optional[AccessPattern] = None,
    duration_s: float = 0.0,
) -> tuple:
    """One ``("K", launch)`` event; timing fields other than
    ``duration_s`` are zero.

    Fusion never reads timing from its *inputs* (only from the re-analysed
    fused descriptor), and replay only reads ``duration_s``, so synthetic
    launches don't need the analysis pipeline.
    """
    desc = KernelDescriptor(
        name=name,
        op_class=op_class,
        threads=threads,
        fp32_flops=fp32_flops,
        int32_iops=int32_iops,
        ldst_instrs=ldst_instrs,
        control_instrs=control_instrs,
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        reuse_factor=reuse_factor,
        access=access or AccessPattern.coalesced(element_bytes),
        block_size=block_size,
        phase=phase,
        compute_scale=compute_scale,
    )
    launch = KernelLaunch(
        descriptor=desc,
        launch_id=-1,
        device_id=device_id,
        cycles=0.0,
        duration_s=duration_s,
        start_s=0.0,
        instructions=0.0,
        fp32_instrs=0.0,
        int32_instrs=0.0,
        ipc=0.0,
        occupancy=0.0,
        memory=MemoryMetrics(),
        stalls=StallBreakdown(),
    )
    return ("K", launch)


def make_transfer(direction: str = "h2d", nbytes: int = 4096,
                  label: str = "batch", duration_s: float = 0.0) -> tuple:
    """One ``("T", record)`` event (always a fusion barrier)."""
    return ("T", TransferRecord(
        direction=direction,
        nbytes=nbytes,
        num_values=nbytes // 4,
        num_zeros=0,
        label=label,
        start_s=0.0,
        duration_s=duration_s,
        device_id=0,
    ))


def make_alloc(nbytes: int = 4096, label: str = "activation",
               phase: str = "forward") -> tuple:
    """One ``("A", nbytes, label, phase)`` pool allocation (a fusion
    barrier)."""
    return ("A", nbytes, label, phase)


def make_free(nbytes: int = 4096) -> tuple:
    """One ``("F", block, requested)`` pool free of an ``nbytes`` request.

    Frees need not match an earlier allocation of the sequence: a captured
    epoch also frees blocks allocated before it.
    """
    return ("F", round_block(nbytes), nbytes)


def events(max_size: int = 40):
    """Shrinkable Hypothesis strategy over launch-sequence event lists.

    Skews towards fusible elementwise launches so generated sequences
    actually contain runs, while still mixing in every barrier kind:
    reductions (both by op class and by ``reuse_factor``), GEMMs, strided
    elementwise kernels, transfers, pool allocations and frees, epoch
    boundaries, phase switches, and a second device.
    """
    from hypothesis import strategies as st

    # exact-in-float integers: cost-conservation asserts exact FP equality
    work = st.integers(min_value=0, max_value=2**20).map(float)
    duration = st.one_of(st.floats(min_value=0.0, max_value=MAX_DURATION_S),
                         st.just(TIE_DURATION_S))

    fusible_kernel = st.builds(
        make_launch,
        name=st.sampled_from(ELEMENTWISE_NAMES),
        # skew every compatibility axis towards its common value so adjacent
        # fusible launches actually form runs, while keeping each axis able
        # to break one
        phase=st.sampled_from(("forward", "forward", "forward", "backward",
                               "optimizer")),
        device_id=st.sampled_from((0, 0, 0, 0, 1)),
        threads=st.integers(min_value=32, max_value=1 << 16),
        block_size=st.sampled_from((256, 256, 256, 128)),
        element_bytes=st.sampled_from((4, 4, 4, 8)),
        fp32_flops=work,
        int32_iops=work,
        bytes_read=work,
        bytes_written=work,
        control_instrs=work,
        duration_s=duration,
    )
    unfusible_elementwise = st.one_of(
        # elementwise but cache-reusing (acts like a fused-unsafe kernel)
        st.builds(make_launch, name=st.just("ew_reuse"),
                  reuse_factor=st.just(1.5), fp32_flops=work,
                  duration_s=duration),
        # elementwise but strided access
        st.builds(make_launch, name=st.just("ew_strided"),
                  access=st.just(AccessPattern.strided(128)),
                  fp32_flops=work, duration_s=duration),
        # elementwise with shape-dependent compute scaling
        st.builds(make_launch, name=st.just("ew_scaled"),
                  compute_scale=st.just(2.0), fp32_flops=work,
                  duration_s=duration),
    )
    barrier_kernel = st.one_of(
        st.builds(make_launch, name=st.just("rowsum"),
                  op_class=st.just(OpClass.REDUCTION),
                  reuse_factor=st.just(1.5), fp32_flops=work,
                  duration_s=duration),
        st.builds(make_launch, name=st.just("gemm"),
                  op_class=st.just(OpClass.GEMM),
                  reuse_factor=st.just(8.0), fp32_flops=work,
                  duration_s=duration),
        st.builds(make_launch, name=st.just("gather"),
                  op_class=st.just(OpClass.GATHER), fp32_flops=work,
                  duration_s=duration),
    )
    pool_event = st.one_of(
        st.builds(make_alloc, nbytes=st.sampled_from(POOL_SIZES),
                  label=st.sampled_from(POOL_LABELS),
                  phase=st.sampled_from(POOL_PHASES)),
        st.builds(make_free, nbytes=st.sampled_from(POOL_SIZES)),
    )
    event = st.one_of(
        fusible_kernel,
        fusible_kernel,  # bias towards runs forming at all
        unfusible_elementwise,
        barrier_kernel,
        st.builds(make_transfer, direction=st.sampled_from(("h2d", "d2h")),
                  nbytes=st.integers(min_value=4, max_value=1 << 20),
                  duration_s=duration),
        pool_event,
        st.just(EPOCH_BOUNDARY),
    )
    return st.lists(event, max_size=max_size)


def random_events(rng: np.random.Generator, size: int = 40) -> list[tuple]:
    """Seeded, Hypothesis-free equivalent of :func:`events` for reuse."""
    out: list[tuple] = []
    for _ in range(size):
        roll = rng.random()
        work = float(rng.integers(0, 2**20))
        duration = (TIE_DURATION_S if rng.random() < 0.2
                    else float(rng.random() * MAX_DURATION_S))
        if roll < 0.55:
            out.append(make_launch(
                name=ELEMENTWISE_NAMES[int(rng.integers(len(ELEMENTWISE_NAMES)))],
                phase=PHASES[int(rng.integers(len(PHASES)))] if rng.random() < 0.3
                else "forward",
                device_id=int(rng.random() < 0.2),
                threads=int(rng.integers(32, 1 << 16)),
                block_size=128 if rng.random() < 0.25 else 256,
                element_bytes=8 if rng.random() < 0.25 else 4,
                fp32_flops=work,
                bytes_read=float(rng.integers(0, 2**20)),
                bytes_written=float(rng.integers(0, 2**20)),
                duration_s=duration,
            ))
        elif roll < 0.65:
            out.append(make_launch(name="rowsum",
                                   op_class=OpClass.REDUCTION,
                                   reuse_factor=1.5, fp32_flops=work,
                                   duration_s=duration))
        elif roll < 0.75:
            out.append(make_transfer(
                direction=("h2d", "d2h")[int(rng.integers(2))],
                nbytes=int(rng.integers(4, 1 << 20)),
                duration_s=duration,
            ))
        elif roll < 0.9:
            nbytes = POOL_SIZES[int(rng.integers(len(POOL_SIZES)))]
            if rng.random() < 0.5:
                out.append(make_alloc(
                    nbytes,
                    label=POOL_LABELS[int(rng.integers(len(POOL_LABELS)))],
                    phase=POOL_PHASES[int(rng.integers(len(POOL_PHASES)))],
                ))
            else:
                out.append(make_free(nbytes))
        else:
            out.append(EPOCH_BOUNDARY)
    return out
