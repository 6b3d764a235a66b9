"""GNNMark: the top-level suite API.

    from repro import GNNMark

    mark = GNNMark()
    profile = mark.characterize("ARGA", epochs=2)
    print(mark.render_op_breakdown(mark.characterize_suite()))

Everything the benchmark harness prints for the paper's tables and figures
goes through this class, so downstream users get the same views.
"""

from __future__ import annotations

from typing import Optional

from ..profiling import format_scaling, format_series, format_table
from ..train import ddp
from . import characterize, executor, registry


class GNNMark:
    """Facade over the registry, profiler pipeline and scaling study."""

    SCALES = registry.SCALES

    def __init__(self, scale: str = "profile", seed: int = 0) -> None:
        self.scale = scale
        self.seed = seed

    # -- inventory (Table I) --------------------------------------------------
    def workloads(self) -> list[str]:
        return list(registry.WORKLOAD_KEYS)

    def spec(self, key: str) -> registry.WorkloadSpec:
        return registry.get(key)

    def table1(self) -> list[dict[str, str]]:
        return registry.table1_rows()

    def render_table1(self, rows: Optional[list[dict[str, str]]] = None) -> str:
        rows = self.table1() if rows is None else rows
        if not rows:
            return "(no workloads)"
        cols = list(rows[0].keys())
        widths = {c: max(len(c), *(len(r[c]) for r in rows)) + 2 for c in cols}
        lines = ["".join(c.ljust(widths[c]) for c in cols)]
        lines.append("-" * sum(widths.values()))
        for r in rows:
            lines.append("".join(r[c].ljust(widths[c]) for c in cols))
        return "\n".join(lines)

    # -- characterization -----------------------------------------------------------
    def characterize(self, key: str, epochs: int = 1,
                     scale: Optional[str] = None
                     ) -> characterize.WorkloadProfile:
        return characterize.profile_workload(
            key, scale=scale or self.scale, epochs=epochs, seed=self.seed
        )

    def characterize_suite(self, keys: Optional[list[str]] = None,
                           epochs: int = 1, scale: Optional[str] = None,
                           jobs: Optional[int] = None, cache=None
                           ) -> characterize.SuiteProfile:
        """Characterize workloads through the suite execution engine.

        ``jobs`` fans independent workloads out over a process pool
        (``None`` → ``$REPRO_JOBS``, default serial); ``cache=True`` (or a
        :class:`~repro.core.cache.ProfileCache`) replays unchanged
        profiles from the persistent on-disk cache.
        """
        return characterize.profile_suite(
            keys, scale=scale or self.scale, epochs=epochs, seed=self.seed,
            jobs=jobs, cache=cache,
        )

    # -- figure renderers -------------------------------------------------------------
    @staticmethod
    def _empty(title: str) -> str:
        return f"{title}\n(no workloads)"

    def render_op_breakdown(self, suite: characterize.SuiteProfile) -> str:
        from ..gpu import FIGURE_CATEGORIES

        title = "Figure 2: execution-time breakdown by operation"
        if not suite.profiles:
            return self._empty(title)
        rows = {k: p.op_breakdown() for k, p in suite.profiles.items()}
        return format_table(rows, list(FIGURE_CATEGORIES), title=title,
                            percent=True, width=11)

    def render_instruction_mix(self, suite: characterize.SuiteProfile) -> str:
        title = "Figure 3: dynamic instruction mix"
        if not suite.profiles:
            return self._empty(title)
        rows = {k: p.instruction_mix() for k, p in suite.profiles.items()}
        return format_table(rows, ["int32", "fp32", "other"], title=title,
                            percent=True)

    def render_throughput(self, suite: characterize.SuiteProfile) -> str:
        title = "Figure 4: achieved GFLOPS / GIOPS / IPC"
        if not suite.profiles:
            return self._empty(title)
        rows = {k: p.throughput() for k, p in suite.profiles.items()}
        return format_table(rows, ["gflops", "giops", "ipc"], title=title,
                            percent=False)

    def render_stalls(self, suite: characterize.SuiteProfile) -> str:
        title = "Figure 5: issue-stall breakdown"
        if not suite.profiles:
            return self._empty(title)
        cols = ["memory_dependency", "execution_dependency", "instruction_fetch",
                "synchronization", "pipe_busy", "not_selected", "other"]
        rows = {k: p.stalls() for k, p in suite.profiles.items()}
        return format_table(rows, cols, title=title, percent=True, width=13)

    def render_cache(self, suite: characterize.SuiteProfile) -> str:
        title = "Figure 6: cache hit rates and divergent loads"
        if not suite.profiles:
            return self._empty(title)
        rows = {k: p.cache() for k, p in suite.profiles.items()}
        return format_table(rows, ["l1_hit", "l2_hit", "divergent_loads"],
                            title=title, percent=True)

    def render_sparsity(self, suite: characterize.SuiteProfile) -> str:
        title = "Figure 7: average H2D transfer sparsity"
        if not suite.profiles:
            return self._empty(title)
        rows = {k: {"h2d_sparsity": p.transfer_sparsity()}
                for k, p in suite.profiles.items()}
        return format_table(rows, ["h2d_sparsity"], title=title, percent=True)

    def render_sparsity_timeline(self, suite: characterize.SuiteProfile) -> str:
        title = "Figure 8: per-transfer sparsity timeline"
        if not suite.profiles:
            return self._empty(title)
        series = {k: p.sparsity_timeline() for k, p in suite.profiles.items()}
        return format_series(series, title=title)

    # -- multi-GPU ------------------------------------------------------------------------
    def scaling_study(self, keys: Optional[list[str]] = None,
                      gpu_counts: tuple[int, ...] = (1, 2, 4),
                      epochs: int = 1, jobs: Optional[int] = None,
                      cache=None) -> dict[str, dict[int, float]]:
        """Figure 9: seconds per epoch of each workload (default: every DDP
        workload) at each GPU count, one executor ``scaling`` task per
        workload; ``jobs`` and ``cache`` as in :meth:`characterize_suite`.
        """
        return ddp.epoch_times(executor.suite(
            "scaling", ddp.DDP_KEYS if keys is None else keys, jobs=jobs,
            cache=cache, gpu_counts=gpu_counts, scale="scaling",
            epochs=epochs, seed=self.seed))

    def render_scaling(self, times: dict[str, dict[int, float]]) -> str:
        title = "Figure 9: strong scaling (speedup vs 1 GPU)"
        if not times:
            return self._empty(title)
        return format_scaling(times, title=title)
