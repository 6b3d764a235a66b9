"""Physical-consistency validators for the simulated GPU's output records.

The analytical cache/timing/stall models produce numbers that downstream
figures treat as ground truth.  These validators encode what must hold for
*every* record regardless of workload — times nonnegative and monotone,
stall shares a probability distribution, hit rates genuine rates, byte flows
consistent with the memory hierarchy — so a model refactor that breaks the
physics fails loudly instead of skewing a figure.

Enable "strict mode" on a device with the :func:`strict_mode` context
manager:

    with strict_mode(device) as checker:
        ... run training ...

It installs an :class:`InvariantChecker` as the device's one per-event hook
(:attr:`~repro.gpu.SimulatedGPU.checker`), so a violation raises at the
faulting launch or transfer.  Violations raise :class:`InvariantViolation`
(an ``AssertionError`` subclass, so pytest reports them as failures, not
errors).
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np

from ..gpu.device import SimulatedGPU
from ..gpu.kernel import (
    AccessKind,
    KernelDescriptor,
    KernelLaunch,
    StallBreakdown,
    TransferRecord,
)
from ..tensor import autograd

#: stall shares are normalized exactly; allow float accumulation noise.
_STALL_SUM_TOL = 1e-6
#: RLE byte-pair encoding can expand dense payloads slightly; anything past
#: this bound means the compression model (or wire_bytes plumbing) broke.
_WIRE_EXPANSION_LIMIT = 1.25


class InvariantViolation(AssertionError):
    """A simulated record violated a physical-consistency invariant."""


def _fail(record: str, message: str) -> None:
    raise InvariantViolation(f"{record}: {message}")


def check_descriptor(desc: KernelDescriptor) -> None:
    """Validate the static kernel description."""
    where = f"descriptor {desc.name!r}"
    if desc.threads < 1:
        _fail(where, f"threads={desc.threads} < 1")
    if desc.block_size < 1:
        _fail(where, f"block_size={desc.block_size} < 1")
    for attr in ("fp32_flops", "int32_iops", "ldst_instrs", "control_instrs",
                 "bytes_read", "bytes_written"):
        value = getattr(desc, attr)
        if not np.isfinite(value) or value < 0:
            _fail(where, f"{attr}={value} is negative or non-finite")
    if desc.working_set_bytes <= 0:
        _fail(where, f"working_set_bytes={desc.working_set_bytes} <= 0")
    if desc.reuse_factor < 1.0:
        _fail(where, f"reuse_factor={desc.reuse_factor} < 1")
    if desc.compute_scale <= 0:
        _fail(where, f"compute_scale={desc.compute_scale} <= 0")
    if desc.phase not in autograd.PHASES:
        _fail(where, f"unknown phase {desc.phase!r}")
    if desc.access.kind is AccessKind.IRREGULAR and desc.access.indices is None:
        _fail(where, "IRREGULAR access pattern carries no index array")


def check_stalls(stalls: StallBreakdown, where: str = "stalls") -> None:
    """Stall shares must form a probability distribution."""
    for key, share in stalls.as_dict().items():
        if not np.isfinite(share) or share < 0 or share > 1:
            _fail(where, f"stall share {key}={share} outside [0, 1]")
    total = stalls.total()
    if abs(total - 1.0) > _STALL_SUM_TOL:
        _fail(where, f"stall shares sum to {total!r}, expected 1")


def check_launch(launch: KernelLaunch) -> None:
    """Validate one completed kernel launch."""
    desc = launch.descriptor
    where = f"launch #{launch.launch_id} ({desc.name!r})"
    check_descriptor(desc)

    if not np.isfinite(launch.start_s) or launch.start_s < 0:
        _fail(where, f"start_s={launch.start_s} is negative or non-finite")
    if not np.isfinite(launch.duration_s) or launch.duration_s <= 0:
        _fail(where, f"duration_s={launch.duration_s} must be positive")
    if launch.cycles <= 0:
        _fail(where, f"cycles={launch.cycles} must be positive")
    if launch.ipc <= 0:
        _fail(where, f"ipc={launch.ipc} must be positive")
    if not (0.0 < launch.occupancy <= 1.0):
        _fail(where, f"occupancy={launch.occupancy} outside (0, 1]")

    # instruction identity: total = fp32 + int32 + ldst + control, where the
    # timing model substitutes an 8% control-overhead estimate when the
    # descriptor leaves control_instrs unset.
    control = desc.control_instrs
    if control <= 0:
        control = 0.08 * (launch.fp32_instrs + launch.int32_instrs
                          + desc.ldst_instrs)
    expected = (launch.fp32_instrs + launch.int32_instrs
                + desc.ldst_instrs + control)
    if launch.instructions <= 0:
        _fail(where, f"instructions={launch.instructions} must be positive")
    if not np.isclose(launch.instructions, expected, rtol=1e-6):
        _fail(where, f"instructions={launch.instructions} != "
                     f"fp32+int32+ldst+control={expected}")

    mem = launch.memory
    for attr in ("l1_hit_rate", "l2_hit_rate", "divergent_load_fraction"):
        rate = getattr(mem, attr)
        if not np.isfinite(rate) or rate < 0 or rate > 1:
            _fail(where, f"{attr}={rate} outside [0, 1]")
    if mem.transactions < 0:
        _fail(where, f"transactions={mem.transactions} negative")
    if mem.lines_per_warp < 1.0:
        _fail(where, f"lines_per_warp={mem.lines_per_warp} < 1")
    if mem.l2_bytes < 0 or mem.dram_bytes < 0:
        _fail(where, f"negative byte flow (l2={mem.l2_bytes}, "
                     f"dram={mem.dram_bytes})")
    # traffic only ever shrinks moving down the hierarchy
    if mem.dram_bytes > mem.l2_bytes * (1 + 1e-9):
        _fail(where, f"dram_bytes={mem.dram_bytes} exceeds "
                     f"l2_bytes={mem.l2_bytes}")

    check_stalls(launch.stalls, where=f"{where} stalls")


def check_transfer(record: TransferRecord) -> None:
    """Validate one host<->device copy record."""
    where = f"transfer {record.label!r} ({record.direction})"
    if record.direction not in ("h2d", "d2h"):
        _fail(where, f"unknown direction {record.direction!r}")
    if record.nbytes < 0 or record.num_values < 0:
        _fail(where, f"negative size (nbytes={record.nbytes}, "
                     f"num_values={record.num_values})")
    if not (0 <= record.num_zeros <= record.num_values):
        _fail(where, f"num_zeros={record.num_zeros} outside "
                     f"[0, num_values={record.num_values}]")
    if not np.isfinite(record.start_s) or record.start_s < 0:
        _fail(where, f"start_s={record.start_s} is negative or non-finite")
    if not np.isfinite(record.duration_s) or record.duration_s < 0:
        _fail(where, f"duration_s={record.duration_s} negative or non-finite")
    if record.wire_bytes < 0:
        _fail(where, f"wire_bytes={record.wire_bytes} negative")
    if record.wire_bytes > record.nbytes * _WIRE_EXPANSION_LIMIT + 64:
        _fail(where, f"wire_bytes={record.wire_bytes} expands nbytes="
                     f"{record.nbytes} beyond the RLE worst case")


class InvariantChecker:
    """Validates every launch and transfer of a device as it occurs.

    Called with each event-log entry (see :func:`strict_mode`).  Also
    enforces stream-level ordering: record start times must be
    nondecreasing (the simulated clock never rewinds), and launch starts
    never precede the previous launch's enqueue-constrained start.
    """

    def __init__(self, device_id: int = 0) -> None:
        self.device_id = device_id
        self.launches_checked = 0
        self.transfers_checked = 0
        self._last_start_s = 0.0

    def __call__(self, entry: tuple) -> None:
        if entry[0] == "K":
            self.on_launch(KernelLaunch.of(entry[3], entry[4], entry[1],
                                           self.device_id, entry[2]))
        else:
            self.on_transfer(entry[1])

    def _check_monotone(self, start_s: float, where: str) -> None:
        if start_s + 1e-12 < self._last_start_s:
            _fail(where, f"start_s={start_s} precedes previous record at "
                         f"{self._last_start_s} (clock rewound)")
        self._last_start_s = start_s

    def on_launch(self, launch: KernelLaunch) -> None:
        check_launch(launch)
        self._check_monotone(
            launch.start_s, f"launch #{launch.launch_id} ({launch.name!r})"
        )
        self.launches_checked += 1

    def on_transfer(self, record: TransferRecord) -> None:
        check_transfer(record)
        self._check_monotone(
            record.start_s, f"transfer {record.label!r} ({record.direction})"
        )
        self.transfers_checked += 1


@contextlib.contextmanager
def strict_mode(device: SimulatedGPU) -> Iterator[InvariantChecker]:
    """Check every launch and transfer of ``device`` within a block.

        with strict_mode(device):
            trainer.run(epochs=1, seed=0)
    """
    checker = InvariantChecker(device.device_id)
    previous, device.checker = device.checker, checker
    try:
        yield checker
    finally:
        device.checker = previous
