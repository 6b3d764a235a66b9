"""The four workloads of the host-time benchmark.

Each workload builds its state in :meth:`Workload.setup` and runs its fixed
unit of work in :meth:`Workload.run_pass`, checking every simulated output
it produces: against the committed goldens where the run uses the goldens'
own seed, and against the same operation's first output in the run always.
An operation fails if it raised, if its simulated output differs from its
reference, or if capture fell back to dispatch.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"
SCALE = "test"
#: the seed every committed golden was generated with
GOLDEN_SEED = 0

#: the nine Table-I models
MODELS = ("DGCN", "GW", "KGNNL", "KGNNH", "PSAGE-MVL", "PSAGE-NWP", "STGCN",
          "TLSTM", "ARGA")

#: the paper's Fig. 2-8 renderers
FIGURES = ("render_op_breakdown", "render_instruction_mix",
           "render_throughput", "render_stalls", "render_cache",
           "render_sparsity", "render_sparsity_timeline")

#: parameters of the committed sample/serve/shard goldens
SAMPLE_PARAMS = dict(scale=SCALE, fanouts=(10, 5), batch_size=64,
                     prefetch_depth=2, epochs=2, nodes=None)
SERVE_PARAMS = dict(scale=SCALE, qps=100.0, arrival="poisson", batch_max=8,
                    max_wait_us=2000.0, requests=256, num_users=64)
SHARD_PARAMS = {
    "ARGA-P4": dict(parts=4, offload=False, nodes=768, feat_dim=48,
                    hidden=16, epochs=2, mode="numeric"),
    "ARGA-OFFLOAD": dict(parts=4, offload=True, nodes=768, feat_dim=48,
                         hidden=16, epochs=2, mode="numeric"),
    "ARGA-CAP4": dict(parts=4, offload=False, nodes=20000, feat_dim=256,
                      hidden=32, epochs=2, mode="capacity"),
}
#: the non-whole-graph runs, named after their golden files
MODE_RUNS = ("sample_ARGA", "sample_PSAGE-MVL", "serve_PSAGE-MVL",
             "serve_PSAGE-NWP", "serve_DGCN", "shard_ARGA-P4",
             "shard_ARGA-OFFLOAD", "shard_ARGA-CAP4")


@dataclass
class PassResult:
    """Outcome of one pass (or set-up): each operation's simulated output,
    the operations that failed and why, and the work they did."""

    outputs: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)
    kernels: int = 0
    sim_s: float = 0.0
    #: host ns of each operation
    host_ns: dict = field(default_factory=dict)


def golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def reset_program_caches() -> None:
    """Drop what the program memoizes across calls (datasets, partition
    plans, analysis records), so the next set-up pays for it again."""
    from repro.gpu import analysis_cache

    for name, mod in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for value in list(vars(mod).values()):
                if hasattr(value, "cache_clear") and hasattr(value,
                                                             "cache_info"):
                    value.cache_clear()
    analysis_cache.clear()


class Workload:
    name = ""
    #: the operations of one pass
    keys: tuple = ()

    def __init__(self, seed: int = 0, keys=None) -> None:
        self.seed = int(seed)
        if keys is not None:
            self.keys = tuple(keys)
        #: each operation's first output; every later output must equal it
        self.reference: dict = {}
        self.setup_result = PassResult()

    def setup(self) -> None:
        """Build everything the passes reuse (timed as ``setup_s``)."""

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def _run(self, res: PassResult, op: str, fn):
        """Run and time one operation; a raise fails it and returns None."""
        t0 = time.perf_counter_ns()
        try:
            return fn()
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            res.outputs[op] = None
            res.failed[op] = f"raised {exc!r}"
            return None
        finally:
            res.host_ns[op] = time.perf_counter_ns() - t0

    def _record(self, res: PassResult, op: str, output,
                problem: str | None = None) -> None:
        res.outputs[op] = output
        reference = self.reference.setdefault(op, output)
        if problem is None and output != reference:
            problem = "simulated output differs from its first in this run"
        if problem is not None:
            res.failed[op] = problem


def _idle_epoch(trainer, seed: int) -> tuple:
    """One epoch on a device whose clocks start idle at 0, so the simulated
    epoch time is the same float on every pass that does the same work."""
    device = trainer.device
    device.clock_s = device.host_clock_s = 0.0
    epoch = trainer.run(1, seed=seed)[0]
    return (epoch.sim_time_s, epoch.kernels,
            tuple(sorted(epoch.metrics.items())))


def _capture_state(trainer):
    return getattr(getattr(trainer, "_controller", None), "state", None)


class TrainDispatch(Workload):
    """One restore-and-dispatch epoch of each model per pass
    (``Trainer(steady=True)``); set-up builds and runs one warm-up epoch."""

    name = "train-dispatch"
    keys = MODELS
    capture_replay = False

    def setup(self) -> None:
        from repro.core import registry
        from repro.gpu.device import SimulatedGPU
        from repro.tensor import manual_seed
        from repro.train.trainer import Trainer

        res = self.setup_result = PassResult()
        self.trainers = {}
        for key in self.keys:
            manual_seed(self.seed)
            device = SimulatedGPU()
            workload = registry.get(key).build(device=device, scale=SCALE)
            device.reset()
            trainer = Trainer(workload=workload, device=device,
                              steady=not self.capture_replay,
                              capture_replay=self.capture_replay)
            warm = trainer.run(1, seed=self.seed)[0]
            res.outputs[key] = (warm.kernels, warm.metrics.get("loss"))
            problem = None
            if self.seed == GOLDEN_SEED:
                ref = golden(key)
                want = (ref["launch_count"], ref["losses"][0])
                if res.outputs[key] != want:
                    problem = (f"warm-up (kernels, loss) {res.outputs[key]}"
                               f" != golden {want}")
            if self.capture_replay:
                _idle_epoch(trainer, self.seed)  # capture
                # the validation epoch is dispatched; every replayed pass
                # must reproduce it exactly
                self.reference[key] = _idle_epoch(trainer, self.seed)
                if _capture_state(trainer) != "replay":
                    problem = problem or "capture fell back to dispatch"
            if problem is not None:
                res.failed[key] = problem
            self.trainers[key] = trainer

    def run_pass(self) -> PassResult:
        res = PassResult()
        for key, trainer in self.trainers.items():
            out = self._run(res, key, lambda: _idle_epoch(trainer, self.seed))
            if out is None:
                continue
            res.sim_s += out[0]
            res.kernels += out[1]
            problem = None
            if self.capture_replay and _capture_state(trainer) != "replay":
                problem = "capture fell back to dispatch"
            self._record(res, key, out, problem)
        return res


class TrainReplay(TrainDispatch):
    """One replayed epoch of each model per pass
    (``Trainer(capture_replay=True)``); warm-up, capture and validation
    epochs are set-up."""

    name = "train-replay"
    capture_replay = True


class Characterize(Workload):
    """The paper's figure pipeline, cold: a two-epoch profile of each model
    under the nvprof/nvbit/sparsity/trace listeners, then Figs. 2-8."""

    name = "characterize"
    keys = MODELS

    def setup(self) -> None:
        from repro.core import registry
        from repro.gpu.device import SimulatedGPU

        # building each model once generates (and memoizes) its dataset
        for key in self.keys:
            registry.get(key).build(device=SimulatedGPU(), scale=SCALE)

    def run_pass(self) -> PassResult:
        from repro.core.characterize import SuiteProfile, profile_workload
        from repro.core.suite import GNNMark
        from repro.gpu import analysis_cache

        analysis_cache.clear()
        res = PassResult()
        profiles = {}
        for key in self.keys:
            prof = self._run(res, key, lambda: profile_workload(
                key, scale=SCALE, epochs=2, seed=self.seed))
            if prof is None:
                continue
            profiles[key] = prof
            res.sim_s += prof.sim_time_s
            res.kernels += prof.launch_count
            losses = [m.get("loss") for m in prof.train_metrics]
            problem = None
            if (self.seed == GOLDEN_SEED
                    and losses[:1] != golden(key)["losses"][:1]):
                problem = f"first-epoch loss {losses[:1]} != golden"
            out = (prof.launch_count, prof.sim_time_s,
                   tuple(tuple(sorted(m.items())) for m in prof.train_metrics))
            self._record(res, key, out, problem)
        mark = GNNMark(scale=SCALE, seed=self.seed)
        suite = SuiteProfile(profiles)
        text = self._run(res, "figures", lambda: "\n".join(
            getattr(mark, name)(suite) for name in FIGURES))
        if text is not None:
            self._record(res, "figures",
                         hashlib.sha256(text.encode()).hexdigest())
        return res


def _sample(key: str, seed: int):
    from repro.train.loader import sample_run

    report, _ = sample_run(key, seed=seed, **SAMPLE_PARAMS)
    return report, report["kernels"], report["sim_wall_s"]


def _serve(key: str, seed: int):
    from repro.serve import serve_run

    report, _ = serve_run(key, seed=seed, **SERVE_PARAMS)
    # every batch of one size runs its plan's kernels (dispatched once,
    # then replayed)
    kernels = sum(count * report["plan_kernels"][size]
                  for size, count in report["batch_size_hist"].items())
    return report, kernels, report["duration_s"]


def _shard(name: str, seed: int):
    from repro.train.sharded import shard_run

    report, _ = shard_run("ARGA", seed=seed, name=name, **SHARD_PARAMS[name])
    return report, report["kernels"], report["sim_wall_s"]


_MODES = {"sample": _sample, "serve": _serve, "shard": _shard}


class SampleServeShard(Workload):
    """The sampled, served and sharded runs at their goldens' parameters,
    each pass starting from an empty analysis cache as a fresh CLI run does.
    Set-up is one warm-up pass: it memoizes datasets and partition plans."""

    name = "sample-serve-shard"
    keys = MODE_RUNS

    def setup(self) -> None:
        self.setup_result = self.run_pass()

    def run_pass(self) -> PassResult:
        from repro.gpu import analysis_cache

        analysis_cache.clear()
        res = PassResult()
        for op in self.keys:
            mode, name = op.split("_", 1)
            got = self._run(res, op, lambda: _MODES[mode](name, self.seed))
            if got is None:
                continue
            report, kernels, sim_s = got
            res.sim_s += sim_s
            res.kernels += kernels
            digest = report[f"{mode}_digest"]
            problem = None
            if (self.seed == GOLDEN_SEED
                    and digest != golden(op)[f"{mode}_digest"]):
                problem = "digest differs from its committed golden"
            self._record(res, op, digest, problem)
        return res


WORKLOADS = {cls.name: cls for cls in
             (TrainDispatch, TrainReplay, Characterize, SampleServeShard)}


def make(name: str, seed: int = 0, keys=None) -> Workload:
    return WORKLOADS[name](seed, keys)
