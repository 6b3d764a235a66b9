"""Kernel taxonomy and launch records for the simulated GPU.

Every operation executed by the tensor framework on a simulated device emits
one or more :class:`KernelDescriptor` objects.  A descriptor captures what a
real CUDA kernel of that operation would look like to a profiler: thread
geometry, dynamic instruction counts, byte traffic, and the memory-access
pattern (including, for irregular operations, the *actual index array* so the
divergence model can measure rather than guess).

The device model consumes a descriptor and returns a :class:`KernelLaunch`
holding the derived metrics (cycles, stalls, cache hit rates, IPC, ...).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class OpClass(enum.Enum):
    """Operation classes, mirroring the categories of the paper's Figure 2.

    The paper decomposes GNN training time into GEMM, SpMM, convolutions,
    scatters, gathers, reductions, index selection, sorting and element-wise
    operations; everything else is "Other".  We keep a slightly finer
    taxonomy (GEMV, SOFTMAX, BATCHNORM, EMBEDDING, COPY) and fold it into the
    paper's categories via :meth:`figure_category`.
    """

    GEMM = "GEMM"
    GEMV = "GEMV"
    SPMM = "SPMM"
    CONV2D = "CONV2D"
    ELEMENTWISE = "ELEMENTWISE"
    REDUCTION = "REDUCTION"
    SCATTER = "SCATTER"
    GATHER = "GATHER"
    INDEX_SELECT = "INDEX_SELECT"
    SORT = "SORT"
    SOFTMAX = "SOFTMAX"
    BATCHNORM = "BATCHNORM"
    EMBEDDING = "EMBEDDING"
    COPY = "COPY"
    OTHER = "OTHER"

    def figure_category(self) -> str:
        """Map the op class onto the paper's Figure-2 breakdown category."""
        return _FIGURE_CATEGORY[self]


_FIGURE_CATEGORY = {
    OpClass.GEMM: "GEMM",
    OpClass.GEMV: "GEMM",
    OpClass.SPMM: "SpMM",
    OpClass.CONV2D: "Conv",
    OpClass.ELEMENTWISE: "Elementwise",
    OpClass.REDUCTION: "Reduction",
    OpClass.SCATTER: "Scatter",
    OpClass.GATHER: "Gather",
    OpClass.INDEX_SELECT: "IndexSelect",
    OpClass.SORT: "Sort",
    OpClass.SOFTMAX: "Reduction",
    OpClass.BATCHNORM: "BatchNorm",
    OpClass.EMBEDDING: "Gather",
    OpClass.COPY: "Other",
    OpClass.OTHER: "Other",
}

#: Order used when rendering Figure-2 style tables.
FIGURE_CATEGORIES = (
    "GEMM",
    "SpMM",
    "Conv",
    "BatchNorm",
    "Scatter",
    "Gather",
    "Reduction",
    "IndexSelect",
    "Sort",
    "Elementwise",
    "Other",
)


class AccessKind(enum.Enum):
    COALESCED = "coalesced"
    STRIDED = "strided"
    IRREGULAR = "irregular"


def _lanes(row_width: int) -> int:
    """Threads a row-gather pattern lays along one row: thread ``t`` reads
    element ``t % lanes`` of row ``t // lanes``, at most a warp per row."""
    return max(1, min(row_width, 32))


def _window(size: int, sample: int) -> tuple[int, int, int]:
    """``(start, step, count)`` of the stratified sample of a ``size``-long
    stream: ``count`` elements ``step`` apart from ``start``, centred."""
    if size <= sample:
        return 0, 1, size
    return (size % sample) // 2, size // sample, sample


@dataclass
class AccessPattern:
    """Describes how a kernel's dominant loads touch memory.

    For :attr:`AccessKind.IRREGULAR` the *actual* index array driving the
    gather/scatter is attached; the divergence model inspects it directly,
    which is the analogue of the paper's NVBit instrumentation.

    A row-gather pattern (``row_width`` set, built by
    :meth:`irregular_rows`) holds row indices instead of addresses: its
    stream is their expansion, ``lanes = min(row_width, 32)`` threads per
    row with thread ``t`` reading element
    ``indices[t // lanes] * row_width + t % lanes``.  Only the sampled
    window of that stream is ever expanded, and only when the divergence
    model reads it.
    """

    kind: AccessKind = AccessKind.COALESCED
    stride_bytes: int = 4
    element_bytes: int = 4
    indices: Optional[np.ndarray] = None
    row_width: Optional[int] = None

    def _row_window(self, sample: int) -> tuple[int, ...]:
        """``(lanes, start, step, count, first, last)``: the stream window
        of :meth:`sampled_indices` and the rows ``[first, last)`` it spans."""
        lanes = _lanes(self.row_width)
        start, step, count = _window(self.indices.size * lanes, sample)
        last = (start + (count - 1) * step) // lanes + 1
        return lanes, start, step, count, start // lanes, last

    def sampled_indices(self, sample: int) -> Optional[np.ndarray]:
        """Deterministic stratified sample of the index stream.

        This is exactly the slice the divergence model inspects (whole warps
        are kept so per-warp statistics stay meaningful), so two patterns
        with equal samples are indistinguishable to the analysis pipeline.
        """
        if self.indices is None:
            return None
        if self.row_width is None:
            flat = np.ascontiguousarray(self.indices).reshape(-1)
            start, step, count = _window(flat.size, sample)
            return flat[start : start + count * step : step]
        lanes, start, step, count, first, last = self._row_window(sample)
        addr = (self.indices[first:last, None] * self.row_width
                + np.arange(lanes)[None, :]).reshape(-1)
        offset = start - first * lanes
        return addr[offset : offset + count * step : step]

    def fingerprint(self, sample: int = 4096) -> tuple:
        """Cheap content identity of this pattern for analysis memoization.

        Regular patterns are fully described by their closed-form parameters.
        Irregular patterns hash the *sampled* index bytes — the only part of
        the stream the divergence model ever reads — so equal fingerprints
        guarantee byte-identical analysis results for a given sample size.
        A row-gather pattern hashes the rows its sampled window covers,
        with the row width and the window's offset and step, which fix the
        window without expanding it.  Lazily computed and cached per sample
        size on the pattern object.

        Fingerprints are in-process cache keys only (they are never
        persisted or compared across runs), so the siphash built into
        ``hash()`` is enough identity: every irregular launch hands a fresh
        pattern to the analysis cache, and hashing the sample is on that
        path.
        """
        if self.kind is AccessKind.COALESCED:
            return ("C", self.element_bytes)
        if self.kind is AccessKind.STRIDED:
            return ("S", self.stride_bytes, self.element_bytes)
        store = self.__dict__.setdefault("_fingerprints", {})
        fp = store.get(sample)
        if fp is None:
            if self.row_width is not None:
                lanes, start, step, count, first, last = \
                    self._row_window(sample)
                if step <= lanes:  # the window touches every row it spans
                    rows = self.indices[first:last]
                else:  # one row per sampled thread, rows in between skipped
                    rows = self.indices[
                        (start + step * np.arange(count)) // lanes]
                fp = ("R", self.element_bytes, self.row_width, start, step,
                      hash(rows.tobytes()))
            else:
                flat = self.sampled_indices(sample)
                if flat is None or flat.size == 0:
                    fp = ("I", self.element_bytes, None)
                else:
                    digest = hash(np.ascontiguousarray(flat).tobytes())
                    fp = ("I", self.element_bytes, flat.size,
                          flat.dtype.str, digest)
            store[sample] = fp
        return fp

    @staticmethod
    def coalesced(element_bytes: int = 4) -> "AccessPattern":
        return AccessPattern(AccessKind.COALESCED, element_bytes, element_bytes)

    @staticmethod
    def strided(stride_bytes: int, element_bytes: int = 4) -> "AccessPattern":
        return AccessPattern(AccessKind.STRIDED, stride_bytes, element_bytes)

    @staticmethod
    def irregular(indices: np.ndarray, element_bytes: int = 4) -> "AccessPattern":
        return AccessPattern(
            AccessKind.IRREGULAR, element_bytes, element_bytes, np.asarray(indices)
        )

    @staticmethod
    def irregular_rows(rows: np.ndarray, row_width: int,
                       element_bytes: int = 4) -> "AccessPattern":
        """Gathering or scattering whole rows of ``row_width`` elements,
        over an int64 copy of the first ``4096 // lanes + 1`` row indices:
        enough rows for a 4096-thread sample.  How many are kept fixes the
        stream length every sample's window is taken from."""
        sample = np.asarray(rows).reshape(-1)[: 4096 // _lanes(row_width) + 1]
        return AccessPattern(AccessKind.IRREGULAR, element_bytes,
                             element_bytes, sample.astype(np.int64),
                             int(row_width))


@dataclass
class KernelDescriptor:
    """Static description of a single kernel launch.

    Instruction counts are *dynamic* totals over all threads.  ``fp32_flops``
    and ``int32_iops`` are the arithmetic work (used for GFLOPS/GIOPS);
    instruction counts are derived from them by the timing model using the
    op-class FMA fraction.
    """

    name: str
    op_class: OpClass
    threads: int
    fp32_flops: float = 0.0
    int32_iops: float = 0.0
    ldst_instrs: float = 0.0
    control_instrs: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    working_set_bytes: float = 0.0
    #: average number of times each cached line is re-touched after first use.
    reuse_factor: float = 1.0
    access: AccessPattern = field(default_factory=AccessPattern.coalesced)
    block_size: int = 256
    #: tag propagated from autograd: "forward", "backward" or "optimizer".
    phase: str = "forward"
    #: extra compute-cycle multiplier for shape effects the op knows about
    #: (e.g. GEMM tile-padding waste on skinny matrices); scales cycle cost,
    #: not the reported arithmetic work.
    compute_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.threads <= 0:
            raise ValueError(f"kernel {self.name!r} must launch >= 1 thread")
        if self.working_set_bytes <= 0:
            self.working_set_bytes = max(self.bytes_read + self.bytes_written, 1.0)
        if self.ldst_instrs <= 0:
            # one load/store instruction per 128-byte warp transaction minimum
            self.ldst_instrs = max(
                (self.bytes_read + self.bytes_written) / 128.0, 1.0
            )

    @property
    def warps(self) -> int:
        return max(1, math.ceil(self.threads / 32))

    @property
    def blocks(self) -> int:
        return max(1, math.ceil(self.threads / self.block_size))

    @property
    def total_bytes(self) -> float:
        return self.bytes_read + self.bytes_written


@dataclass(frozen=True)
class MemoryMetrics:
    """Memory-hierarchy outcome of one launch.

    Frozen: launch-analysis records are memoized and shared between repeated
    launches of identical descriptors (see :mod:`repro.gpu.analysis_cache`),
    so they must stay immutable once published.
    """

    transactions: float = 0.0
    divergent_load_fraction: float = 0.0
    lines_per_warp: float = 1.0
    l1_hit_rate: float = 0.0
    l2_hit_rate: float = 0.0
    l2_bytes: float = 0.0
    dram_bytes: float = 0.0


@dataclass(frozen=True)
class StallBreakdown:
    """Issue-stall attribution, matching nvprof's stall_* categories.

    Frozen for the same reason as :class:`MemoryMetrics`: instances are
    shared between memoized launches.
    """

    memory_dependency: float = 0.0
    execution_dependency: float = 0.0
    instruction_fetch: float = 0.0
    synchronization: float = 0.0
    pipe_busy: float = 0.0
    not_selected: float = 0.0
    other: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "memory_dependency": self.memory_dependency,
            "execution_dependency": self.execution_dependency,
            "instruction_fetch": self.instruction_fetch,
            "synchronization": self.synchronization,
            "pipe_busy": self.pipe_busy,
            "not_selected": self.not_selected,
            "other": self.other,
        }

    def total(self) -> float:
        return sum(self.as_dict().values())


@dataclass
class KernelLaunch:
    """A completed (simulated) kernel launch with derived metrics."""

    descriptor: KernelDescriptor
    launch_id: int
    device_id: int
    cycles: float
    duration_s: float
    start_s: float
    instructions: float
    fp32_instrs: float
    int32_instrs: float
    ipc: float
    occupancy: float
    memory: MemoryMetrics
    stalls: StallBreakdown
    #: the analysis record the launch was resolved from (what a replayed
    #: plan logs for it); ``None`` for hand-built launches
    record: Optional[object] = field(default=None, compare=False, repr=False)

    @classmethod
    def of(cls, desc: KernelDescriptor, record, launch_id: int,
           device_id: int, start_s: float) -> "KernelLaunch":
        """The envelope of one analysed launch (``record`` is its
        :class:`~repro.gpu.analysis_cache.AnalysisRecord`)."""
        tim = record.timing
        return cls(
            descriptor=desc, launch_id=launch_id, device_id=device_id,
            cycles=tim.cycles, duration_s=tim.duration_s, start_s=start_s,
            instructions=tim.instructions, fp32_instrs=tim.fp32_instrs,
            int32_instrs=tim.int32_instrs, ipc=tim.ipc,
            occupancy=tim.occupancy, memory=record.memory,
            stalls=record.stalls, record=record,
        )

    @property
    def name(self) -> str:
        return self.descriptor.name

    @property
    def op_class(self) -> OpClass:
        return self.descriptor.op_class

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    @property
    def gflops(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.descriptor.fp32_flops / self.duration_s / 1e9

    @property
    def giops(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.descriptor.int32_iops / self.duration_s / 1e9


@dataclass
class TransferRecord:
    """One host<->device copy, with measured value sparsity.

    ``sparsity`` is the fraction of zero values in the transferred buffer —
    the metric the paper collects by patching PyTorch's H2D copy path.
    """

    direction: str
    nbytes: int
    num_values: int
    num_zeros: int
    label: str
    start_s: float
    duration_s: float
    device_id: int
    #: bytes actually moved over PCIe (< nbytes when compression is on)
    wire_bytes: int = -1

    def __post_init__(self) -> None:
        if self.wire_bytes < 0:
            self.wire_bytes = self.nbytes

    @property
    def compression_ratio(self) -> float:
        if self.wire_bytes <= 0:
            return 1.0
        return self.nbytes / self.wire_bytes

    @property
    def sparsity(self) -> float:
        if self.num_values == 0:
            return 0.0
        return self.num_zeros / self.num_values
