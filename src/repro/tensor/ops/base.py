"""Shared infrastructure for kernel-emitting tensor operations.

Every operation family has an *instruction cost model*: closed-form dynamic
instruction counts per element of work, mirroring what the corresponding CUDA
kernels execute (grid-stride index arithmetic, predicate checks, the actual
math, loads/stores).  These coefficients are global calibration constants —
defined per op family, never per workload — so differences between workloads
in the reproduced figures come from the kernel streams the models actually
launch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ...gpu import AccessPattern, KernelDescriptor, OpClass, analysis_cache
from ...gpu.device import SimulatedGPU
from .. import autograd


@dataclass(frozen=True)
class ElementCost:
    """Per-element dynamic instruction costs of an op family.

    Hashes by value (equal costs from different construction sites share a
    launch-site memo entry) but the hash is computed once: every kernel
    launch hashes a cost as part of its memo key.
    """

    flops: float
    iops: float
    ldst: float
    control: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash((self.flops, self.iops, self.ldst, self.control))
        )

    def __hash__(self) -> int:  # pragma: no cover - exercised everywhere
        return self._hash


# Per-element costs.  "Element" means one output value unless noted.
COSTS = {
    # grid-stride loop: index IMAD chain, bounds predicate, load(s), math, store
    "unary": ElementCost(flops=1.0, iops=20.0, ldst=2.0, control=2.5),
    "binary": ElementCost(flops=1.0, iops=26.0, ldst=3.0, control=2.5),
    "copy": ElementCost(flops=0.0, iops=20.0, ldst=2.0, control=2.5),
    "compare": ElementCost(flops=0.5, iops=24.0, ldst=3.0, control=2.5),
    # per gathered/scattered element: index load + pointer IMADs (+atomic RMW)
    "gather": ElementCost(flops=0.0, iops=34.0, ldst=2.5, control=3.0),
    "scatter": ElementCost(flops=1.0, iops=36.0, ldst=3.5, control=3.0),
    # per input element of a tree reduction (log factor folded in)
    "reduction": ElementCost(flops=1.3, iops=18.0, ldst=1.3, control=2.5),
    "softmax": ElementCost(flops=3.0, iops=18.0, ldst=3.0, control=2.5),
    "batchnorm": ElementCost(flops=4.0, iops=18.0, ldst=3.0, control=2.5),
    # per key for one full 32-bit radix sort (4 passes count/scan/scatter)
    "sort": ElementCost(flops=0.0, iops=100.0, ldst=12.0, control=12.0),
    # per nnz*feature MAC of row-parallel CSR SpMM
    "spmm": ElementCost(flops=2.0, iops=10.0, ldst=2.0, control=1.5),
}

#: integer (addressing) ops per fp32 FMA in tiled dense math; the K loop
#: amortizes pointer math, so the per-FMA cost falls with reduction depth.
def gemm_iops_per_fma(k: int) -> float:
    return 0.05 + 1.7 / max(k, 4) ** 0.5


CONV_IOPS_PER_FMA = 1.05

FLOAT_BYTES = 4
INDEX_BYTES = 8


#: shared coalesced access patterns per element size.  The objects are
#: reused across launches (their lazily-cached fingerprints make repeat
#: signature probes free) — safe because nothing ever mutates a pattern.
_COALESCED: dict[int, AccessPattern] = {}


def coalesced_access(element_bytes: int = FLOAT_BYTES) -> AccessPattern:
    pattern = _COALESCED.get(element_bytes)
    if pattern is None:
        pattern = _COALESCED[element_bytes] = AccessPattern.coalesced(element_bytes)
    return pattern


def as_array(x) -> np.ndarray:
    """Payload of a Tensor, or the array itself (ndarray.data is a memoryview)."""
    if isinstance(x, np.ndarray):
        return x
    data = getattr(x, "data", None)
    if isinstance(data, np.ndarray):
        return data
    return np.asarray(x)


def device_of(*tensors) -> Optional[SimulatedGPU]:
    """First simulated device among the operands.

    NumPy 2.x arrays expose an Array-API ``.device`` string ("cpu"), so the
    attribute must be type-checked, not just truth-tested.
    """
    for t in tensors:
        dev = getattr(t, "device", None)
        if isinstance(dev, SimulatedGPU):
            return dev
    return None


def launch(
    device: Optional[SimulatedGPU],
    name: str,
    op_class: OpClass,
    threads: int,
    cost: Optional[ElementCost] = None,
    work_items: Optional[float] = None,
    fp32_flops: float = 0.0,
    int32_iops: float = 0.0,
    ldst_instrs: float = 0.0,
    control_instrs: float = 0.0,
    bytes_read: float = 0.0,
    bytes_written: float = 0.0,
    working_set_bytes: float = 0.0,
    reuse_factor: float = 1.0,
    access: Optional[AccessPattern] = None,
    block_size: int = 256,
    compute_scale: float = 1.0,
) -> None:
    """Emit one kernel to ``device`` (no-op for CPU tensors).

    Launch-site fast path: with the analysis cache enabled, launches whose
    access pattern is regular (fully described by closed-form parameters)
    memoize the finished ``(descriptor, analysis record)`` pair per device,
    keyed by the raw arguments of this call.  A repeat emission — every layer
    of every epoch re-emits identical kernels — skips the cost arithmetic,
    descriptor construction and analysis probe and goes straight to
    :meth:`SimulatedGPU.replay` (clock arithmetic plus counters).  The key
    holds every input the descriptor is built from, so a hit replays exactly
    what the slow path would have produced.  Irregular patterns carry real
    index arrays and are served by the content-addressed analysis cache
    instead (see :func:`irregular_row_access`).
    """
    if device is None:
        return
    fast = analysis_cache.enabled() and (access is None or access.indices is None)
    if fast:
        key = (
            name, op_class, autograd.current_phase(), threads, block_size,
            cost, work_items, fp32_flops, int32_iops, ldst_instrs,
            control_instrs, bytes_read, bytes_written, working_set_bytes,
            reuse_factor, compute_scale,
            None if access is None
            else (access.kind, access.stride_bytes, access.element_bytes),
        )
        entry = device.site_records.get(key)
        if entry is not None:
            device.replay(entry[0], entry[1])
            return
    if cost is not None:
        n = work_items if work_items is not None else float(threads)
        fp32_flops += cost.flops * n
        int32_iops += cost.iops * n
        ldst_instrs += cost.ldst * n
        control_instrs += cost.control * n
    desc = KernelDescriptor(
        name=name,
        op_class=op_class,
        threads=max(1, int(threads)),
        fp32_flops=fp32_flops,
        int32_iops=int32_iops,
        ldst_instrs=ldst_instrs,
        control_instrs=control_instrs,
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        working_set_bytes=working_set_bytes,
        reuse_factor=reuse_factor,
        access=access or coalesced_access(FLOAT_BYTES),
        block_size=block_size,
        phase=autograd.current_phase(),
        compute_scale=compute_scale,
    )
    if fast:
        record = device.launch_analyzed(desc)
        device.site_records[key] = (desc, record)
        return
    device.launch_fast(desc)


def launch_elementwise(
    device: Optional[SimulatedGPU],
    name: str,
    out_size: int,
    num_inputs: int = 2,
    kind: str = "binary",
    flops_per_elem: Optional[float] = None,
    dtype_bytes: int = FLOAT_BYTES,
) -> None:
    """Emit a streaming elementwise kernel over ``out_size`` values."""
    if device is None or out_size == 0:
        return
    cost = COSTS[kind]
    if flops_per_elem is not None:
        cost = ElementCost(flops_per_elem, cost.iops, cost.ldst, cost.control)
    launch(
        device,
        name,
        OpClass.ELEMENTWISE,
        threads=out_size,
        cost=cost,
        bytes_read=float(num_inputs * out_size * dtype_bytes),
        bytes_written=float(out_size * dtype_bytes),
        access=coalesced_access(dtype_bytes),
    )


def launch_reduction(
    device: Optional[SimulatedGPU],
    name: str,
    in_size: int,
    out_size: int,
    op_class: OpClass = OpClass.REDUCTION,
    kind: str = "reduction",
    dtype_bytes: int = FLOAT_BYTES,
) -> None:
    if device is None or in_size == 0:
        return
    launch(
        device,
        name,
        op_class,
        threads=max(out_size, min(in_size, 1 << 20)),
        cost=COSTS[kind],
        work_items=float(in_size),
        bytes_read=float(in_size * dtype_bytes),
        bytes_written=float(out_size * dtype_bytes),
        reuse_factor=1.5,
        access=coalesced_access(dtype_bytes),
    )


def emit_accumulate(device: Optional[SimulatedGPU], grad: np.ndarray) -> None:
    """Gradient accumulation (`grad += g`) emits an elementwise add."""
    launch_elementwise(device, "grad_accumulate", int(grad.size), num_inputs=2)


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...], device) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting.

    Emits the reduction kernels a real framework would run for the same job.
    """
    if grad.shape == shape:
        return grad
    launch_unbroadcast(device, grad.shape, shape)
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def launch_unbroadcast(device: Optional[SimulatedGPU], grad_shape: tuple[int, ...],
                       shape: tuple[int, ...]) -> None:
    """The reduction :func:`unbroadcast` launches to bring a gradient of
    ``grad_shape`` back to ``shape`` (none when they match), without the
    gradient: ops that skip an unneeded gradient still launch it."""
    if grad_shape != shape:
        launch_reduction(device, "unbroadcast_sum", math.prod(grad_shape),
                         math.prod(shape))


def gemm_tiles(m: int, n: int) -> tuple[int, int, int]:
    """(tile_m, tile_n, num_tiles): cuBLAS-style heuristic tile selection.

    Skinny shapes get smaller tiles so the padding waste stays bounded, as
    the real library's kernel-selection heuristics arrange.
    """
    tile_m = 128 if m > 64 else (64 if m > 32 else 32)
    tile_n = 64 if n > 32 else 32
    return tile_m, tile_n, math.ceil(m / tile_m) * math.ceil(n / tile_n)


def gemm_threads(m: int, n: int, k: int = 1, num_sms: int = 80) -> int:
    """Thread count of a tiled GEMM: 256 threads per output tile.

    Tile quantization is what makes skinny GNN GEMMs run far below peak —
    an emergent effect the paper's Figure-4 numbers depend on.  When the
    (m, n) tile grid cannot fill the machine, cuBLAS-style split-K kernels
    parallelize over the reduction axis; weight-gradient GEMMs (tiny m, n
    and huge k) depend on this.
    """
    _, _, tiles = gemm_tiles(m, n)
    split_k = 1
    if tiles < 2 * num_sms:
        split_k = min(math.ceil(k / 256), max(1, (2 * num_sms) // max(tiles, 1)))
        split_k = max(split_k, 1)
    return tiles * split_k * 256


def launch_gemm(
    device: Optional[SimulatedGPU],
    name: str,
    m: int,
    k: int,
    n: int,
    batch: int = 1,
) -> None:
    """Emit a (batched) dense GEMM kernel: C[m,n] = A[m,k] @ B[k,n]."""
    if device is None or m * k * n == 0:
        return
    flops = 2.0 * batch * m * k * n
    fmas = flops / 2.0
    op_class = OpClass.GEMM
    if n == 1 or m == 1:
        op_class = OpClass.GEMV
    bytes_read = FLOAT_BYTES * batch * (m * k + k * n)
    bytes_written = FLOAT_BYTES * batch * m * n
    # Tile quantization: the kernel computes whole tiles, so skinny matrices
    # pay for padded lanes (real FLOPs / issued FLOPs < 1).
    tile_m, tile_n, tiles = gemm_tiles(m, n)
    pad_waste = (
        math.ceil(m / tile_m) * tile_m * math.ceil(n / tile_n) * tile_n
    ) / max(m * n, 1)
    # Integer work: per-FMA addressing (amortized by the K loop), a per-output
    # epilogue (index math, bounds, beta scaling), and per-tile loop
    # bookkeeping — so skinny/short-K GEMMs skew far more integer than large
    # square ones.
    iops = (
        gemm_iops_per_fma(k) * fmas
        + 14.0 * batch * m * n
        + 30.0 * batch * tiles * max(1.0, k / 8.0)
    )
    launch(
        device,
        name,
        op_class,
        threads=batch * gemm_threads(m, n, k),
        fp32_flops=flops,
        int32_iops=iops,
        ldst_instrs=fmas / 16.0,  # shared-memory tiling amortizes loads
        control_instrs=fmas / 32.0,
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        working_set_bytes=bytes_read + bytes_written,
        reuse_factor=2.0,
        compute_scale=min(pad_waste, 8.0),
    )


def irregular_row_access(
    indices: np.ndarray, row_width: int, element_bytes: int = FLOAT_BYTES
) -> AccessPattern:
    """Access pattern of gathering/scattering whole feature rows.

    Threads are laid out feature-major (adjacent threads read adjacent
    features of the same row), the layout DGL/PyG kernels use; divergence
    then comes from *row* transitions inside a warp, measured on the real
    index array.  The pattern carries a copy of the row-index sample, not
    its address expansion (:meth:`AccessPattern.irregular_rows`): repeat
    launches over equal index content share their analysis and divergence
    results through the pattern's content fingerprint.
    """
    indices = np.asarray(indices)
    if indices.size == 0:
        return coalesced_access(element_bytes)
    return AccessPattern.irregular_rows(indices, row_width, element_bytes)
