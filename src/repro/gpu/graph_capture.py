"""Step capture & replay for the simulated GPU ("CUDA Graphs" for the model).

GNNMark's central observation is that GNN training is *launch-dominated*:
thousands of tiny irregular kernels per epoch, not a few large GEMMs.  Our
analytical simulator inherits that pathology — per-launch Python dispatch and
memo probes dominate epoch wall time even at a 96-99% analysis-cache hit rate.
Real frameworks answer this with CUDA Graphs: record the launch sequence of
one step under a static-input discipline, then replay the whole graph with a
single submission.  This module is the simulator's analogue.

The controller runs a four-stage state machine over training epochs:

``warmup``
    Dispatch one epoch normally (populating every cache), then snapshot the
    *steady state*: optimizer-held parameters and state arrays plus the
    framework-global RNG state (:mod:`repro.tensor.random`).  Restoring that
    snapshot before each subsequent epoch makes training a fixed point — the
    exact static-input discipline CUDA Graphs demands.
``capture``
    Restore, dispatch once more, and record every device side effect in
    order from the device's event log: kernel launches (with their resolved
    analysis triples), transfers, and the memory-pool alloc/free events that
    :attr:`MemoryPool.tap` writes into the same log while the recorder runs.
``validate``
    Restore and dispatch a third epoch under the same recorder; the captured
    plan is only trusted if this epoch is *bit-identical* to the captured one
    (same event sequence, same durations, same analysis metrics, same epoch
    metrics).  Any mismatch permanently falls back to dispatch, recording the
    reason.  The plan's integer stat deltas (kernel/transfer counts,
    analysis hits/misses, transfer bytes) are measured over this epoch — the
    first epoch whose cache behaviour matches all later steady epochs.
``replay``
    All remaining epochs re-apply the plan in a tight loop: pure clock
    arithmetic and batched counter updates, no workload code, no dispatch, no
    descriptor hashing.  Replay is terminal and never restores, so the
    controller drops its steady-state snapshot when it builds the plan.
    Replays run the plan's compiled view (kernel/transfer steps plus one
    allocator delta), appending the plan's launches and transfers to the
    event log when one is open; only a pool tap, a memory-counter sink,
    strict mode or a pool whose free lists cannot cover the plan make a
    replay re-issue every event.  Floating-point stat accumulation
    preserves the per-event operation order so replayed epochs are
    *byte-identical* to dispatched ones — the differential suite in
    ``tests/test_graph_capture`` enforces this on golden streams, traces
    and memory snapshots.

An opt-in fusion pass (:func:`fuse_events`) merges runs of adjacent
elementwise launches into one synthetic kernel with summed instruction/byte
counts — the classic elementwise-fusion optimisation, legal only within a
phase, on one device, with no intervening transfer, reduction, or memory
event.  Fused plans intentionally diverge from dispatch (fewer, larger
kernels), so they are snapshotted by their own golden family
(``golden --fused``) rather than the differential suite.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import analysis_cache
from .device import SimulatedGPU
from .kernel import AccessKind, KernelDescriptor, KernelLaunch, OpClass
from .memory import PoolDelta

#: bump when the captured-plan event model changes shape
GRAPH_CAPTURE_VERSION = 1


# -- steady-state input discipline --------------------------------------------


def _optimizers_of(workload) -> list:
    from ..tensor.optim import Optimizer

    return [v for v in vars(workload).values() if isinstance(v, Optimizer)]


class SteadyState:
    """Snapshot/restore of everything an epoch mutates.

    Three pieces make a training epoch a fixed point of the simulation:

    1. parameter tensors (restored in place with ``np.copyto`` — no new
       arrays, hence no tracker registrations and no kernel launches),
    2. the optimizer state a step carries into the next, as each optimizer
       names it (``state_arrays``: momentum, Adam moments; ``state_scalars``:
       step counters) — scratch a step writes before reading is left out,
       and
    3. the framework-global RNG (dropout masks, negative sampling) — without
       it the kernel *stream* is already epoch-invariant but values drift.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self._snapshot: Optional[list] = None
        self._rng_state = None

    def snapshot(self) -> None:
        from ..tensor import random as framework_random

        self._rng_state = framework_random.generator().bit_generator.state
        snap = []
        for opt in _optimizers_of(self.workload):
            params = [np.array(p.data, copy=True) for p in opt.params]
            scalars = {k: getattr(opt, k) for k in opt.state_scalars}
            arrays = {k: [np.array(a, copy=True) for a in getattr(opt, k)]
                      for k in opt.state_arrays}
            snap.append((opt, params, scalars, arrays))
        self._snapshot = snap

    def restore(self) -> None:
        if self._snapshot is None:
            raise RuntimeError("SteadyState.restore() before snapshot()")
        from ..tensor import random as framework_random

        framework_random.generator().bit_generator.state = self._rng_state
        for opt, params, scalars, arrays in self._snapshot:
            for param, saved in zip(opt.params, params):
                np.copyto(param.data, saved)
            vars(opt).update(scalars)
            for key, saved_list in arrays.items():
                for live, saved in zip(getattr(opt, key), saved_list):
                    np.copyto(live, saved)


# -- capture ------------------------------------------------------------------


class _EpochRecorder:
    """Records every device side effect of one epoch, in call order.

    A window on the device's event log, with the memory pool's tap writing
    into the same log.  :meth:`finish` turns the window into plan events:
      ``("K", KernelLaunch)``          a kernel launch (analysis resolved)
      ``("T", TransferRecord)``        a host<->device copy
      ``("A", nbytes, label, phase)``  a memory-pool allocation
      ``("F", block, requested)``      a memory-pool free
    """

    def __init__(self, device: SimulatedGPU) -> None:
        self.device = device
        self.window = device.observe()

    def __enter__(self) -> "_EpochRecorder":
        pool = self.device.memory
        self._prev_tap = pool.tap
        pool.tap = self.window.__enter__().log.append
        return self

    def __exit__(self, *exc) -> None:
        self.device.memory.tap = self._prev_tap
        self.window.__exit__(*exc)

    def finish(self) -> list[tuple]:
        """The window as an event list, ready for :class:`EpochPlan`."""
        device_id = self.device.device_id
        return [
            ("K", KernelLaunch.of(entry[3], entry[4], entry[1], device_id,
                                  entry[2]))
            if entry[0] == "K" else entry
            for entry in self.window.entries()
        ]


# -- the captured plan --------------------------------------------------------


@dataclass
class EpochPlan:
    """One steady-state epoch, flattened to a replayable event list.

    Construction also compiles the events for replay (see
    :func:`replay_epoch`): ``segments`` holds the kernel and transfer steps
    in plan order, as runs of kernel durations each closed by the
    :class:`TransferRecord` that follows them (``None`` after the last
    run); ``work`` holds each kernel's ``(duration_s, fp32_flops,
    int32_iops)`` as a column, in plan order, behind one column that
    replay fills with the running totals; ``pool_delta`` is the plan's
    whole allocator effect.
    """

    events: list[tuple]
    #: the (identical) metric dict every steady epoch reports
    metrics: dict
    # integer DeviceStats deltas of one epoch, measured over the validation
    # epoch (the first whose analysis-cache behaviour matches later epochs)
    kernel_count: int
    transfer_count: int
    h2d_bytes: int
    d2h_bytes: int
    analysis_hits: int
    analysis_misses: int
    fused: bool = False
    fused_kernels: int = 0
    fused_members: int = 0
    segments: list = field(init=False, repr=False, compare=False)
    work: np.ndarray = field(init=False, repr=False, compare=False)
    pool_delta: PoolDelta = field(init=False, repr=False, compare=False)
    #: replays that took the compiled / per-event path (telemetry only)
    compiled_replays: int = field(default=0, init=False, compare=False)
    event_replays: int = field(default=0, init=False, compare=False)

    def __post_init__(self) -> None:
        segments, durations, work = [], [], [(0.0, 0.0, 0.0)]
        for event in self.events:
            if event[0] == "K":
                launch = event[1]
                desc = launch.descriptor
                durations.append(launch.duration_s)
                work.append(
                    (launch.duration_s, desc.fp32_flops, desc.int32_iops))
            elif event[0] == "T":
                segments.append((durations, event[1]))
                durations = []
        segments.append((durations, None))
        self.segments = segments
        self.work = np.array(work, dtype=np.float64).T.copy()
        self.pool_delta = PoolDelta.of(
            event for event in self.events if event[0] in ("A", "F"))

    def totals(self) -> dict[str, float]:
        """Summed descriptor-level work of the plan's kernels."""
        totals = {
            "fp32_flops": 0.0, "int32_iops": 0.0, "ldst_instrs": 0.0,
            "control_instrs": 0.0, "bytes_read": 0.0, "bytes_written": 0.0,
        }
        for event in self.events:
            if event[0] != "K":
                continue
            desc = event[1].descriptor
            totals["fp32_flops"] += desc.fp32_flops
            totals["int32_iops"] += desc.int32_iops
            totals["ldst_instrs"] += desc.ldst_instrs
            totals["control_instrs"] += desc.control_instrs
            totals["bytes_read"] += desc.bytes_read
            totals["bytes_written"] += desc.bytes_written
        return totals


# -- validation ---------------------------------------------------------------

_DESC_FIELDS = (
    "name", "op_class", "threads", "fp32_flops", "int32_iops", "ldst_instrs",
    "control_instrs", "bytes_read", "bytes_written", "working_set_bytes",
    "reuse_factor", "block_size", "phase", "compute_scale",
)

_LAUNCH_FIELDS = (
    "device_id", "cycles", "duration_s", "instructions", "fp32_instrs",
    "int32_instrs", "ipc", "occupancy", "memory", "stalls",
)

_TRANSFER_FIELDS = (
    "direction", "nbytes", "num_values", "num_zeros", "label", "duration_s",
    "device_id", "wire_bytes",
)


def _descriptors_equal(a: KernelDescriptor, b: KernelDescriptor) -> bool:
    # Not ``a == b``: irregular access patterns hold numpy index arrays.
    # Equal fingerprints guarantee byte-identical analysis results, which is
    # all a replayed launch exposes.
    if a is not b:
        for name in _DESC_FIELDS:
            if getattr(a, name) != getattr(b, name):
                return False
        if a.access is not b.access and (
            a.access.kind is not b.access.kind
            or a.access.fingerprint() != b.access.fingerprint()
        ):
            return False
    return True


def _events_equal(a: tuple, b: tuple) -> bool:
    """Same side effect, ignoring run position (start_s, launch_id)."""
    if a[0] != b[0]:
        return False
    if a[0] == "K":
        return _descriptors_equal(a[1].descriptor, b[1].descriptor) and all(
            getattr(a[1], name) == getattr(b[1], name)
            for name in _LAUNCH_FIELDS
        )
    if a[0] == "T":
        return all(
            getattr(a[1], name) == getattr(b[1], name)
            for name in _TRANSFER_FIELDS
        )
    return a == b


def validate_events(
    captured: list[tuple], observed: list[tuple]
) -> Optional[str]:
    """``None`` if the two epochs are step-for-step identical, else a reason."""
    if len(captured) != len(observed):
        return (
            f"event count diverged: captured {len(captured)}, "
            f"observed {len(observed)}"
        )
    for index, (a, b) in enumerate(zip(captured, observed)):
        if not _events_equal(a, b):
            return f"event {index} diverged: {a[0]}:{_brief(a)} != {b[0]}:{_brief(b)}"
    return None


def _brief(event: tuple) -> str:
    if event[0] == "K":
        return event[1].descriptor.name
    if event[0] == "T":
        return f"{event[1].direction}:{event[1].label}"
    return repr(event[1:])


# -- replay -------------------------------------------------------------------


def replay_epoch(
    plan: EpochPlan, device: SimulatedGPU, tracker=None
) -> dict:
    """Re-apply one captured epoch: clock arithmetic plus batched counters.

    Bit-identical to dispatching the same epoch: every clock update repeats
    the exact floating-point operation sequence of ``SimulatedGPU.replay`` /
    ``_transfer``, float stat fields accumulate per event in dispatch order
    (into locals, written back once), and integer stat fields — exact under
    addition — are applied as one per-epoch delta.

    When nothing watches single pool events or launches (no pool tap, no
    tracker counter sink, no strict checker) and every bucket's cached free
    blocks cover what the plan takes from it, the plan's compiled view runs:
    its kernel and transfer steps — one tight clock loop, or, while the
    event log is open, the event loop that also appends each launch and
    transfer to it — then its allocator delta.  Otherwise every event is
    re-issued, memory-pool events re-driving the pool and the tracker's
    counter sample exactly as dispatch did.  Returns (a copy of) the
    captured epoch metrics.
    """
    pool = device.memory
    if (
        device.checker is None
        and pool.tap is None
        and (tracker is None or tracker._counter_sink is None)
        and pool.covers(plan.pool_delta)
    ):
        plan.compiled_replays += 1
        if device.log is None:
            _replay_compiled(plan, device)
        else:
            _replay_events(plan, device, None, pool_events=False)
        pool.apply(plan.pool_delta)
    else:
        plan.event_replays += 1
        _replay_events(plan, device, tracker)
    stats = device.stats
    stats.kernel_count += plan.kernel_count
    stats.transfer_count += plan.transfer_count
    stats.h2d_bytes += plan.h2d_bytes
    stats.d2h_bytes += plan.d2h_bytes
    stats.analysis_hits += plan.analysis_hits
    stats.analysis_misses += plan.analysis_misses
    return dict(plan.metrics)


def _replay_compiled(plan: EpochPlan, device: SimulatedGPU) -> None:
    """Clocks and float stats of the plan's compiled steps."""
    launch_overhead = device.sim.device.kernel_launch_overhead_s
    stats = device.stats
    clock = device.clock_s
    host = device.host_clock_s
    overhead_time = stats.launch_overhead_s
    transfer_time = stats.transfer_time_s

    for durations, record in plan.segments:
        for duration in durations:
            host += launch_overhead
            if host > clock:
                overhead_time += host - clock
                clock = host + duration
            else:
                # start == clock: dispatch adds start - clock == +0.0 to an
                # overhead sum that is never -0.0, which leaves it unchanged
                clock += duration
        if record is not None:
            start = clock if clock > host else host
            clock = start + record.duration_s
            host = clock
            transfer_time += record.duration_s

    # Kernel time and work still accumulate kernel by kernel in plan order:
    # ufunc.accumulate adds strictly left to right, as dispatch does.  The
    # plan's first column is the slot for the running totals.
    work = plan.work
    work[:, 0] = (stats.kernel_time_s, stats.fp32_flops, stats.int32_iops)
    (stats.kernel_time_s, stats.fp32_flops,
     stats.int32_iops) = np.add.accumulate(work, axis=1)[:, -1].tolist()
    device.clock_s = clock
    device.host_clock_s = host
    device._launch_counter += work.shape[1] - 1
    stats.launch_overhead_s = overhead_time
    stats.transfer_time_s = transfer_time


def _replay_events(plan: EpochPlan, device: SimulatedGPU, tracker,
                   pool_events: bool = True) -> None:
    """Re-issue the plan's events in order: launches and transfers onto the
    clocks, the event log and strict mode, and (with ``pool_events``) its
    memory-pool events onto the pool and the tracker's counter sample."""
    launch_overhead = device.sim.device.kernel_launch_overhead_s
    stats = device.stats
    clock = device.clock_s
    host = device.host_clock_s
    kernel_time = stats.kernel_time_s
    overhead_time = stats.launch_overhead_s
    transfer_time = stats.transfer_time_s
    fp32_flops = stats.fp32_flops
    int32_iops = stats.int32_iops
    launch_id = device._launch_counter
    observed = device.log is not None or device.checker is not None
    pool = device.memory
    sample = tracker._sample if tracker is not None else None

    for event in plan.events:
        tag = event[0]
        if tag == "K":
            launch = event[1]
            host += launch_overhead
            start = host if host > clock else clock
            overhead_time += start - clock
            clock = start + launch.duration_s
            kernel_time += launch.duration_s
            desc = launch.descriptor
            fp32_flops += desc.fp32_flops
            int32_iops += desc.int32_iops
            if observed:
                device._emit(("K", launch_id, start, desc, launch.record))
            launch_id += 1
        elif tag == "T":
            record = event[1]
            start = clock if clock > host else host
            clock = start + record.duration_s
            host = clock
            transfer_time += record.duration_s
            if observed:
                device._emit(("T", dataclasses.replace(record, start_s=start)))
        elif not pool_events:
            continue
        elif tag == "A":
            device.clock_s = clock  # pool OOM events and tracker samples
            pool.alloc(event[1], label=event[2], phase=event[3])
            if sample is not None:
                sample()
        else:  # "F"
            device.clock_s = clock
            pool.free(event[1], event[2])
            if sample is not None:
                sample()

    device.clock_s = clock
    device.host_clock_s = host
    device._launch_counter = launch_id
    stats.kernel_time_s = kernel_time
    stats.launch_overhead_s = overhead_time
    stats.transfer_time_s = transfer_time
    stats.fp32_flops = fp32_flops
    stats.int32_iops = int32_iops


# -- elementwise fusion -------------------------------------------------------


def fusible(launch: KernelLaunch) -> bool:
    """May this launch join a fusion run at all?

    Only plain streaming elementwise kernels qualify: coalesced access, no
    cache reuse (reductions carry ``reuse_factor`` 1.5), no shape-dependent
    compute scaling.  Everything else — and every non-kernel event — is a
    fusion barrier.
    """
    desc = launch.descriptor
    return (
        desc.op_class is OpClass.ELEMENTWISE
        and desc.access.kind is AccessKind.COALESCED
        and desc.reuse_factor == 1.0
        and desc.compute_scale == 1.0
    )


def _compatible(head: KernelLaunch, other: KernelLaunch) -> bool:
    """May ``other`` extend a run started by ``head``?"""
    a, b = head.descriptor, other.descriptor
    return (
        head.device_id == other.device_id
        and a.phase == b.phase
        and a.block_size == b.block_size
        and a.access.element_bytes == b.access.element_bytes
    )


def fuse_run(members: list[KernelLaunch], sim) -> KernelLaunch:
    """One synthetic kernel covering a run of adjacent elementwise launches.

    Work is conserved exactly: every instruction and byte count is the sum of
    the members'.  The fused kernel is re-analysed cold through the standard
    pipeline, so its timing/memory/stall triple is what the model predicts
    for the merged launch (fewer launch overheads, same traffic).
    """
    descs = [m.descriptor for m in members]
    head = descs[0]
    desc = KernelDescriptor(
        name=f"fused_elementwise_x{len(descs)}",
        op_class=OpClass.ELEMENTWISE,
        threads=max(d.threads for d in descs),
        fp32_flops=sum(d.fp32_flops for d in descs),
        int32_iops=sum(d.int32_iops for d in descs),
        ldst_instrs=sum(d.ldst_instrs for d in descs),
        control_instrs=sum(d.control_instrs for d in descs),
        bytes_read=sum(d.bytes_read for d in descs),
        bytes_written=sum(d.bytes_written for d in descs),
        working_set_bytes=sum(d.working_set_bytes for d in descs),
        reuse_factor=1.0,
        access=head.access,
        block_size=head.block_size,
        phase=head.phase,
        compute_scale=1.0,
    )
    return KernelLaunch.of(desc, analysis_cache.compute(desc, sim), -1,
                           members[0].device_id, 0.0)


def fuse_events(
    events: list[tuple], sim
) -> tuple[list[tuple], list[tuple[KernelLaunch, list[KernelLaunch]]]]:
    """Merge maximal runs of adjacent fusible elementwise launches.

    Returns the rewritten event list and, for every fused kernel, the
    ``(fused_launch, members)`` pair — the property tests reconstruct the
    input from these to prove no fusion crossed a boundary.  Any non-"K"
    event (transfers, pool events, and the synthetic epoch markers the test
    generator emits) is a hard barrier, as is any non-fusible kernel or a
    phase/device/geometry change.
    """
    out: list[tuple] = []
    runs: list[tuple[KernelLaunch, list[KernelLaunch]]] = []
    current: list[KernelLaunch] = []

    def flush() -> None:
        if len(current) >= 2:
            fused = fuse_run(current, sim)
            runs.append((fused, list(current)))
            out.append(("K", fused))
        elif current:
            out.append(("K", current[0]))
        current.clear()

    for event in events:
        if event[0] == "K":
            launch = event[1]
            if fusible(launch):
                if current and not _compatible(current[0], launch):
                    flush()
                current.append(launch)
                continue
            flush()
            out.append(event)
        else:
            flush()
            out.append(event)
    flush()
    return out, runs


def fuse_plan(plan: EpochPlan, sim) -> EpochPlan:
    """Fused variant of a validated plan.

    Replayed fused kernels count as analysis hits (their triple is resolved
    at fusion time, once), so the hit/miss telemetry still reads "everything
    served from the plan".
    """
    events, runs = fuse_events(plan.events, sim)
    kernel_count = sum(1 for event in events if event[0] == "K")
    return EpochPlan(
        events=events,
        metrics=plan.metrics,
        kernel_count=kernel_count,
        transfer_count=plan.transfer_count,
        h2d_bytes=plan.h2d_bytes,
        d2h_bytes=plan.d2h_bytes,
        analysis_hits=kernel_count,
        analysis_misses=0,
        fused=True,
        fused_kernels=len(runs),
        fused_members=sum(len(members) for _, members in runs),
    )


# -- the state machine --------------------------------------------------------


class CaptureReplayController:
    """Drives one workload through warmup -> capture -> validate -> replay.

    With ``replay=False`` the controller only enforces the steady-state input
    discipline (restore + dispatch every epoch) — the dispatch-side baseline
    the differential suite compares replay against.  A validation mismatch
    permanently falls back to that mode, recording ``fallback_reason``.
    Reaching ``replay`` releases :attr:`steady_state` (``None`` from then
    on): a replaying controller keeps its plan and nothing it will not read
    again.
    """

    def __init__(
        self,
        workload,
        device: SimulatedGPU,
        seed: int = 0,
        replay: bool = True,
        fuse: bool = False,
    ) -> None:
        self.workload = workload
        self.device = device
        self.seed = int(seed)
        self.fuse = bool(fuse)
        self.replay_enabled = bool(replay or fuse)
        self.state = "warmup"
        self.plan: Optional[EpochPlan] = None
        self.fused_plan: Optional[EpochPlan] = None
        self.fallback_reason: Optional[str] = None
        self.replayed_epochs = 0
        self.steady_state: Optional[SteadyState] = SteadyState(workload)
        self._captured: Optional[tuple[list[tuple], dict]] = None

    def _dispatch(self) -> dict:
        # Every steady epoch restarts the trainer RNG: together with the
        # SteadyState restore this makes the epoch a true fixed point.
        return self.workload.train_epoch(np.random.default_rng(self.seed))

    def _recorded_dispatch(self) -> tuple[dict, list[tuple]]:
        recorder = _EpochRecorder(self.device)
        with recorder:
            metrics = self._dispatch()
        return metrics, recorder.finish()

    def step(self, memtracker=None) -> dict:
        """Run one epoch in whatever mode the state machine is in."""
        state = self.state
        if state == "replay":
            plan = self.fused_plan if self.fused_plan is not None else self.plan
            self.replayed_epochs += 1
            return replay_epoch(plan, self.device, tracker=memtracker)
        if state == "warmup":
            metrics = self._dispatch()
            self.steady_state.snapshot()
            self.state = "capture" if self.replay_enabled else "steady"
            return metrics
        self.steady_state.restore()
        if state in ("steady", "fallback"):
            return self._dispatch()
        if state == "capture":
            metrics, events = self._recorded_dispatch()
            self._captured = (events, metrics)
            self.state = "validate"
            return metrics
        # state == "validate"
        stats = self.device.stats
        before = (
            stats.kernel_count, stats.transfer_count, stats.h2d_bytes,
            stats.d2h_bytes, stats.analysis_hits, stats.analysis_misses,
        )
        metrics, events = self._recorded_dispatch()
        captured_events, captured_metrics = self._captured
        self._captured = None
        reason = validate_events(captured_events, events)
        if reason is None and captured_metrics != metrics:
            reason = (
                f"epoch metrics diverged: {captured_metrics!r} != {metrics!r}"
            )
        if reason is not None:
            self.state = "fallback"
            self.fallback_reason = reason
            return metrics
        self.plan = EpochPlan(
            events=events,
            metrics=dict(metrics),
            kernel_count=stats.kernel_count - before[0],
            transfer_count=stats.transfer_count - before[1],
            h2d_bytes=stats.h2d_bytes - before[2],
            d2h_bytes=stats.d2h_bytes - before[3],
            analysis_hits=stats.analysis_hits - before[4],
            analysis_misses=stats.analysis_misses - before[5],
        )
        if self.fuse:
            self.fused_plan = fuse_plan(self.plan, self.device.sim)
        self.state = "replay"
        self.steady_state = None
        return metrics

    def describe(self) -> dict:
        """Picklable status for bench reports and fingerprints."""
        info = {
            "state": self.state,
            "replayed_epochs": self.replayed_epochs,
            "fallback_reason": self.fallback_reason,
        }
        if self.plan is not None:
            info["plan_kernels"] = self.plan.kernel_count
            info["plan_transfers"] = self.plan.transfer_count
            replayed = (self.fused_plan if self.fused_plan is not None
                        else self.plan)
            info["compiled_replays"] = replayed.compiled_replays
            info["event_replays"] = replayed.event_replays
        if self.fused_plan is not None:
            info["fused_kernels"] = self.fused_plan.fused_kernels
            info["fused_members"] = self.fused_plan.fused_members
            info["fused_plan_kernels"] = self.fused_plan.kernel_count
        return info
