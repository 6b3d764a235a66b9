"""Host-to-device transfer sparsity instrumentation.

The paper modified PyTorch's H2D copy path to count zero values in every
CPU->GPU transfer during training (Figures 7 and 8).  Our simulated device
measures the zero fraction of the real numpy buffers; this tracker folds
the transfer records a log window's launch table carries into the average
(Figure 7) and the transfer-indexed timeline (Figure 8).
"""

from __future__ import annotations

import numpy as np

from ..gpu.kernel import TransferRecord
from .table import LaunchTable


class SparsityTracker:
    """Collects every H2D transfer's measured value sparsity."""

    def __init__(self) -> None:
        #: the H2D transfer records, in transfer order
        self.samples: list[TransferRecord] = []

    def on_transfer(self, table: LaunchTable) -> None:
        """Keep the H2D copies among a launch table's transfer records."""
        self.samples += [r for r in table.transfers if r.direction == "h2d"]

    # -- aggregation ---------------------------------------------------------
    def average_sparsity(self) -> float:
        """Figure 7: zeros / values over all H2D traffic (value-weighted)."""
        values = sum(s.num_values for s in self.samples)
        if values == 0:
            return 0.0
        zeros = sum(s.sparsity * s.num_values for s in self.samples)
        return zeros / values

    def timeline(self) -> np.ndarray:
        """Figure 8: per-transfer sparsity in transfer order."""
        return np.array([s.sparsity for s in self.samples], dtype=np.float64)

    def by_label(self) -> dict[str, float]:
        acc: dict[str, list[TransferRecord]] = {}
        for s in self.samples:
            acc.setdefault(s.label, []).append(s)
        return {
            label: sum(x.sparsity * x.num_values for x in group)
            / max(1, sum(x.num_values for x in group))
            for label, group in acc.items()
        }

    def total_bytes(self) -> int:
        return sum(s.nbytes for s in self.samples)

    def total_wire_bytes(self) -> int:
        """Bytes that crossed PCIe (reflects any transfer compression)."""
        return sum(s.wire_bytes for s in self.samples)

    def compression_ratio(self) -> float:
        wire = self.total_wire_bytes()
        if wire <= 0:
            return 1.0
        return self.total_bytes() / wire

    def periodicity_score(self) -> float:
        """Autocorrelation peak of the sparsity timeline (Figure 8's
        "clear, predictable pattern"): ~1 for periodic, ~0 for noise."""
        series = self.timeline()
        if series.size < 8 or series.std() < 1e-9:
            return 0.0
        x = series - series.mean()
        ac = np.correlate(x, x, mode="full")[x.size - 1 :]
        ac /= x.var() * np.arange(x.size, 0, -1)
        return float(np.nanmax(ac[1 : max(2, x.size // 2)]))
