"""Profiling toolchain: one launch table per event-log window, reduced by
nvprof-style kernel metrics, NVBit-style divergence instrumentation,
transfer-sparsity tracking and kernel-timeline tracing; a process-wide
metrics registry, and report rendering."""

from . import metrics, trace
from .metrics import MetricsRegistry
from .nvbit import DivergenceInstrument
from .nvprof import METRIC_SAMPLE_LIMIT, KernelProfiler, KernelStats
from .report import (
    format_memory_table,
    format_scaling,
    format_series,
    format_table,
)
from .sparsity import SparsityTracker
from .table import LaunchTable
from .trace import Span, Timeline, Tracer

__all__ = [
    "DivergenceInstrument",
    "KernelProfiler",
    "KernelStats",
    "LaunchTable",
    "METRIC_SAMPLE_LIMIT",
    "MetricsRegistry",
    "Span",
    "SparsityTracker",
    "Timeline",
    "Tracer",
    "format_memory_table",
    "format_scaling",
    "format_series",
    "format_table",
    "metrics",
    "trace",
]
