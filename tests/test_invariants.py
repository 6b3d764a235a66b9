"""GPU-model invariant validators: positive on real runs, negative on
hand-built records that violate the physics."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import profile_workload
from repro.gpu import SimulatedGPU
from repro.gpu.kernel import (
    AccessKind,
    AccessPattern,
    KernelDescriptor,
    OpClass,
    StallBreakdown,
    TransferRecord,
)
from repro.testing import (
    InvariantChecker,
    InvariantViolation,
    check_descriptor,
    check_launch,
    check_stalls,
    check_transfer,
    strict_mode,
)


def _launch_one(device, **overrides):
    desc = KernelDescriptor(
        name="test_kernel", op_class=OpClass.ELEMENTWISE, threads=1024,
        fp32_flops=2048.0, bytes_read=4096.0, bytes_written=4096.0,
        **overrides,
    )
    return device.launch(desc)


# -- positive: real streams satisfy every invariant ---------------------------
def test_strict_mode_full_characterize_run():
    profile = profile_workload("ARGA", scale="test", epochs=1, seed=0,
                               strict=True)
    assert profile.launch_count > 0


def test_checker_counts_records():
    device = SimulatedGPU()
    with strict_mode(device) as checker:
        _launch_one(device)
        device.h2d(np.zeros(64, dtype=np.float32), "x")
        device.d2h(np.ones(64, dtype=np.float32), "y")
    assert checker.launches_checked == 1
    assert checker.transfers_checked == 2


def test_real_launch_passes_check():
    device = SimulatedGPU()
    check_launch(_launch_one(device))


# -- negative: corrupted records are rejected ---------------------------------
def test_bad_phase_rejected():
    desc = KernelDescriptor(name="k", op_class=OpClass.GEMM, threads=32,
                            fp32_flops=1.0, bytes_read=4.0, phase="warmup")
    with pytest.raises(InvariantViolation, match="phase"):
        check_descriptor(desc)


def test_irregular_access_requires_indices():
    desc = KernelDescriptor(
        name="k", op_class=OpClass.GATHER, threads=32, bytes_read=4.0,
        access=AccessPattern(kind=AccessKind.IRREGULAR),
    )
    with pytest.raises(InvariantViolation, match="index array"):
        check_descriptor(desc)


def test_negative_flops_rejected():
    desc = KernelDescriptor(name="k", op_class=OpClass.GEMM, threads=32,
                            fp32_flops=-1.0, bytes_read=4.0)
    with pytest.raises(InvariantViolation, match="fp32_flops"):
        check_descriptor(desc)


def test_stall_shares_must_sum_to_one():
    bad = StallBreakdown(memory_dependency=0.5, execution_dependency=0.4)
    with pytest.raises(InvariantViolation, match="sum"):
        check_stalls(bad)


def test_stall_share_out_of_range():
    bad = StallBreakdown(memory_dependency=1.2, other=-0.2)
    with pytest.raises(InvariantViolation, match="outside"):
        check_stalls(bad)


def test_corrupted_launch_metrics_rejected():
    device = SimulatedGPU()
    launch = _launch_one(device)
    for field, value, pattern in [
        ("duration_s", -1.0, "duration_s"),
        ("occupancy", 1.5, "occupancy"),
        ("ipc", 0.0, "ipc"),
        ("instructions", launch.instructions * 2, "instructions"),
    ]:
        corrupted = dataclasses.replace(launch, **{field: value})
        with pytest.raises(InvariantViolation, match=pattern):
            check_launch(corrupted)


def test_dram_exceeding_l2_rejected():
    device = SimulatedGPU()
    launch = _launch_one(device)
    bad_mem = dataclasses.replace(launch.memory,
                                  dram_bytes=launch.memory.l2_bytes * 2 + 1)
    with pytest.raises(InvariantViolation, match="dram_bytes"):
        check_launch(dataclasses.replace(launch, memory=bad_mem))


def test_hit_rate_out_of_range_rejected():
    device = SimulatedGPU()
    launch = _launch_one(device)
    bad_mem = dataclasses.replace(launch.memory, l1_hit_rate=1.01)
    with pytest.raises(InvariantViolation, match="l1_hit_rate"):
        check_launch(dataclasses.replace(launch, memory=bad_mem))


def _transfer(**overrides):
    fields = dict(direction="h2d", nbytes=256, num_values=64, num_zeros=10,
                  label="x", start_s=0.0, duration_s=1e-6, device_id=0,
                  wire_bytes=256)
    fields.update(overrides)
    return TransferRecord(**fields)


def test_bad_transfer_records_rejected():
    with pytest.raises(InvariantViolation, match="direction"):
        check_transfer(_transfer(direction="p2p"))
    with pytest.raises(InvariantViolation, match="num_zeros"):
        check_transfer(_transfer(num_zeros=65))
    with pytest.raises(InvariantViolation, match="duration_s"):
        check_transfer(_transfer(duration_s=-1.0))
    with pytest.raises(InvariantViolation, match="wire_bytes"):
        check_transfer(_transfer(wire_bytes=10_000))


def test_clock_rewind_detected():
    checker = InvariantChecker()
    checker.on_transfer(_transfer(start_s=2.0))
    with pytest.raises(InvariantViolation, match="rewound"):
        checker.on_transfer(_transfer(start_s=1.0))


def test_detach_stops_checking():
    device = SimulatedGPU()
    with strict_mode(device) as checker:
        assert device.checker is checker
        _launch_one(device)
    assert device.checker is None
    _launch_one(device)
    assert checker.launches_checked == 1


def test_strict_mode_raises_at_the_faulting_launch():
    device = SimulatedGPU()
    with strict_mode(device):
        _launch_one(device)
        with pytest.raises(InvariantViolation, match="unknown phase"):
            _launch_one(device, phase="sideways")
    # the faulting launch was the second one the device issued
    assert device.stats.kernel_count == 2
