"""The launch table: one event-log window's kernel launches as numpy columns.

GNNMark draws Figs. 2-6 from one nvprof campaign plus one NVBit pass.  Here
:meth:`repro.profiling.trace.Tracer._fold` builds one table per log window
and every per-launch export reduces it: the timeline's kernels, the nvprof
and NVBit profilers, transfer sparsity and (through the timeline) the
insights tree.  The loader's stall breakdown reduces one table per sampled
batch.  The exports agree because they reduce one table.

A table holds columns, never a descriptor, an analysis record or an index
array: launch id, device, start and duration; op-class, name and phase
codes, interned in first-seen order (``ops``, ``names`` and ``phases`` hold
the values); flops and iops, and total, fp32, int32 and ld/st instructions;
DRAM and L2 bytes, IPC, occupancy, L1/L2 hit rates, divergent-load
fraction and lines per warp; a row of stall shares (``STALL_REASONS``) and
one of timing components (``COMPONENTS``) per launch.  It carries the
window's transfer records as they are.

Reductions add launches in launch order, so they reproduce a per-launch
fold bit for bit: per group with ``np.add.at``, per column with
:func:`running_total`, never numpy's pairwise ``sum``; a product keeps the
fold's operand order (``share * (duration_s * 1e6)``).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..gpu.kernel import StallBreakdown

STALL_REASONS = tuple(f.name for f in dataclasses.fields(StallBreakdown))
COMPONENTS = ("issue", "fp32", "int32", "lsu", "l2_bw", "dram_bw", "latency",
              "serial")
#: the columns read off each analysis record, before its stalls and
#: components
_RECORD_COLUMNS = ("duration_s", "instructions", "fp32_instrs",
                   "int32_instrs", "dram_bytes", "l2_bytes", "ipc",
                   "occupancy", "l1_hit", "l2_hit", "divergent",
                   "lines_per_warp")


def _record_row(record) -> tuple:
    mem, tim = record.memory, record.timing
    return (tim.duration_s, tim.instructions, tim.fp32_instrs,
            tim.int32_instrs, mem.dram_bytes, mem.l2_bytes, tim.ipc,
            tim.occupancy, mem.l1_hit_rate, mem.l2_hit_rate,
            mem.divergent_load_fraction, mem.lines_per_warp,
            *record.stalls.as_dict().values(),
            *(tim.components[k] for k in COMPONENTS))


def _distinct(objects: list) -> tuple[list, np.ndarray]:
    """The distinct objects (by identity, first-seen order) and the index
    of each object among them."""
    ids = list(map(id, objects))
    first = dict(zip(ids, objects))
    code = dict(zip(first, range(len(first))))
    return list(first.values()), np.array(list(map(code.__getitem__, ids)),
                                          dtype=np.int64)


def _interned(value_lists: list, code_arrays: list) -> tuple[list, list]:
    """The distinct values of ``value_lists`` in first-seen order, and each
    code array re-coded from its own value list into them."""
    index: dict = {}
    codes = [np.array([index.setdefault(v, len(index)) for v in values],
                      dtype=np.int64)[of]
             for values, of in zip(value_lists, code_arrays)]
    return list(index), codes


class LaunchTable:
    """The launches of one log window, or of several concatenated."""

    def __init__(self, columns: dict, ops: list, names: list, phases: list,
                 transfers: list) -> None:
        #: column name -> one value (or row) per launch
        self.columns = columns
        self.ops, self.names, self.phases = ops, names, phases
        self.transfers = transfers

    def __getattr__(self, column: str) -> np.ndarray:
        try:
            return self.__dict__["columns"][column]
        except KeyError:
            raise AttributeError(column) from None

    def __len__(self) -> int:
        return self.start_s.size

    @classmethod
    def of(cls, entries, device: int = 0) -> "LaunchTable":
        """Tabulate event-log ``entries`` of device ``device``.  Launches
        sharing a descriptor or an analysis record (memoized launch sites,
        analysis-cache hits) read it once."""
        launches = [e for e in entries if e[0] == "K"]
        descs, desc_of = _distinct([e[3] for e in launches])
        records, record_of = _distinct([e[4] for e in launches])
        columns = {
            "launch_id": np.array([e[1] for e in launches], dtype=np.int64),
            "device": np.full(len(launches), device, dtype=np.int64),
            "start_s": np.array([e[2] for e in launches], dtype=np.float64),
        }
        values = {}
        for code, attr in (("op", "op_class"), ("name", "name"),
                           ("phase", "phase")):
            values[code], (columns[code],) = _interned(
                [[getattr(d, attr) for d in descs]], [desc_of])
        work = np.array([(d.fp32_flops, d.int32_iops, d.ldst_instrs)
                         for d in descs], dtype=np.float64).reshape(-1, 3)
        columns.update(zip(("flops", "iops", "ldst_instrs"),
                           work[desc_of].T))
        k, s = len(_RECORD_COLUMNS), len(STALL_REASONS)
        rows = np.array([_record_row(r) for r in records],
                        dtype=np.float64).reshape(-1, k + s + len(COMPONENTS))
        rows = rows[record_of]
        columns.update(zip(_RECORD_COLUMNS, rows[:, :k].T))
        columns.update(stalls=rows[:, k:k + s], components=rows[:, k + s:])
        return cls(columns, values["op"], values["name"], values["phase"],
                   [e[1] for e in entries if e[0] == "T"])

    @classmethod
    def concat(cls, tables) -> "LaunchTable":
        """One table of ``tables``' launches and transfers, in order, with
        their codes re-interned in first-seen order."""
        tables = list(tables) or [cls.of(())]
        if len(tables) == 1:
            return tables[0]
        columns = {c: np.concatenate([t.columns[c] for t in tables])
                   for c in tables[0].columns}
        values = {}
        for code, attr in (("op", "ops"), ("name", "names"),
                           ("phase", "phases")):
            values[attr], codes = _interned(
                [getattr(t, attr) for t in tables],
                [t.columns[code] for t in tables])
            columns[code] = np.concatenate(codes)
        return cls(columns, transfers=[r for t in tables for r in t.transfers],
                   **values)

    def on_device(self, device: int) -> "LaunchTable":
        """The same launches, attributed to device ``device``."""
        columns = dict(self.columns,
                       device=np.full(len(self), device, dtype=np.int64))
        return LaunchTable(columns, self.ops, self.names, self.phases,
                           self.transfers)


def first_rows(codes: np.ndarray, count: int) -> np.ndarray:
    """The row of each code's first occurrence (``len(codes)`` for a code
    in ``range(count)`` that does not occur)."""
    first = np.full(count, codes.size, dtype=np.int64)
    np.minimum.at(first, codes, np.arange(codes.size))
    return first


def running_total(total, values: np.ndarray):
    """``total + values[0] + values[1] + ...``, added in launch order: a
    float for 1-D ``values``, one total per column for 2-D."""
    head = np.reshape(total, (1,) + values.shape[1:])
    out = np.cumsum(np.concatenate((head, values)), axis=0)[-1]
    return float(out) if out.ndim == 0 else out
