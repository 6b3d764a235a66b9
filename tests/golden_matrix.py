"""Shared determinism matrix for golden report families.

Every golden report family (memory, serve, sample, shard, insights)
makes the same promise: a report is a pure function of its parameters,
so the exact bytes must survive every way the run can be executed.  The
matrix pins the four axes:

* repeat runs in one process are byte-identical,
* the executor produces the same bytes serial (``jobs=1``) and on pool
  workers (``jobs=2``),
* a profile-cache warm replay matches the cold run that populated it,
* launch-analysis memoization on/off leaves the report untouched.

Subclass :class:`GoldenMatrix` in a ``TestDeterminism`` class, name the
executor ``task`` and its suite ``params`` and implement ``run_single``
(and ``run_analysis`` if it differs); the ``test_*`` methods are inherited.
"""

import json

from repro.core import executor
from repro.core.cache import ProfileCache
from repro.gpu import analysis_cache


def canonical(report) -> str:
    """The byte string the matrix compares: sorted-key JSON."""
    return json.dumps(report, sort_keys=True)


class GoldenMatrix:
    """Mixin asserting a report family is execution-strategy invariant."""

    #: the jobs / profile-cache axes: keys, executor task and its params
    keys = ()
    task = ""
    params: dict = {}

    def run_single(self):
        """One report, fixed parameters (repeat-run axis)."""
        raise NotImplementedError

    def run_suite(self, *, jobs=None, cache=None):
        """Executor suite ``{key: report}`` honouring ``jobs``/``cache``."""
        return executor.suite(self.task, self.keys, jobs=jobs, cache=cache,
                              **self.params)

    def run_analysis(self):
        """One report for the analysis-cache axis (defaults to single)."""
        return self.run_single()

    def test_repeat_runs_byte_identical(self):
        assert canonical(self.run_single()) == canonical(self.run_single())

    def test_jobs_do_not_change_reports(self):
        serial = self.run_suite(jobs=1, cache=False)
        forked = self.run_suite(jobs=2, cache=False)
        for key in self.keys:
            assert canonical(serial[key]) == canonical(forked[key]), key

    def test_profile_cache_replays_identically(self, tmp_path):
        cache = ProfileCache(tmp_path)
        cold = self.run_suite(cache=cache)
        warm = self.run_suite(cache=cache)
        assert cache.hits >= len(self.keys)  # warm pass replayed from disk
        for key in self.keys:
            assert canonical(cold[key]) == canonical(warm[key]), key

    def test_analysis_cache_does_not_change_report(self):
        with analysis_cache.override(True):
            cached = self.run_analysis()
        with analysis_cache.override(False):
            uncached = self.run_analysis()
        # launch-analysis memoization is a speed knob, not a semantics knob:
        # everything except the hit/miss ratio must be byte-identical
        assert canonical(cached) == canonical(uncached)
