"""Single-device training driver with simulated epoch timing."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gpu import memory as gpu_memory
from ..gpu.device import SimulatedGPU
from ..profiling import trace

#: most recent epoch results :attr:`Trainer.history` keeps; long runs keep
#: counting epochs and timing sums past it without retaining every result
HISTORY_WINDOW = 16


@dataclass
class EpochResult:
    epoch: int
    metrics: dict[str, float]
    #: simulated device time consumed by this epoch (seconds)
    sim_time_s: float
    kernels: int


@dataclass
class TimeToTrain:
    """Outcome of a time-to-train run (simulated seconds to a quality bar)."""

    metric: str
    target: float
    achieved: float
    epochs: int
    sim_time_s: float
    converged: bool


@dataclass
class Trainer:
    """Runs a workload's ``train_epoch`` and accounts simulated time.

    The paper reports average time-per-epoch over five epochs (observing
    stable per-epoch times); :meth:`run` mirrors that protocol.

    ``capture_replay`` routes epochs through the
    :class:`repro.gpu.graph_capture.CaptureReplayController` state machine
    (warmup -> capture -> validate -> replay); ``fuse`` additionally merges
    adjacent elementwise launches in the replayed plan.  ``steady`` enforces
    only the static-input discipline (restore + dispatch every epoch) — the
    baseline replayed runs are differentially tested against.  The controller
    persists across :meth:`run` calls so a warm-up ``run(1)`` followed by a
    timed ``run(n)`` (the bench protocol) shares one capture.
    """

    workload: object
    device: SimulatedGPU
    capture_replay: bool = False
    fuse: bool = False
    steady: bool = False
    #: a PrefetchPipeline for mini-batch sampled training; each epoch calls
    #: ``loader.run_epoch(epoch, seed)`` instead of ``workload.train_epoch``
    loader: object = None
    #: the last :data:`HISTORY_WINDOW` epoch results
    history: list[EpochResult] = field(default_factory=list)
    #: epochs run over the trainer's life (the next epoch's number)
    epochs_run: int = field(default=0, init=False)
    _first_epoch_s: float = field(default=0.0, init=False, repr=False)
    _later_epochs_s: float = field(default=0.0, init=False, repr=False)
    _controller: object = field(default=None, init=False, repr=False)

    def run(self, epochs: int, seed: int = 0) -> list[EpochResult]:
        tracer, memtracker = self._observers()  # one check per run
        if self.loader is not None and (
            self.capture_replay or self.fuse or self.steady
        ):
            raise ValueError(
                "mini-batch loader mode is incompatible with capture/replay: "
                "sampled batches change the launch sequence every step"
            )
        if self.loader is not None:
            def step() -> dict:
                return self.loader.run_epoch(self.epochs_run, seed=seed)
        elif self.capture_replay or self.fuse or self.steady:
            if self._controller is None:
                from ..gpu import graph_capture

                self._controller = graph_capture.CaptureReplayController(
                    workload=self.workload,
                    device=self.device,
                    seed=seed,
                    replay=self.capture_replay or self.fuse,
                    fuse=self.fuse,
                )
            controller = self._controller

            def step() -> dict:
                return controller.step(memtracker=memtracker)
        else:
            rng = np.random.default_rng(seed)

            def step() -> dict:
                return self.workload.train_epoch(rng)
        return [self._epoch(step, tracer, memtracker) for _ in range(epochs)]

    def _observers(self) -> tuple:
        """The installed tracer and this device's memory tracker (or None)."""
        memtracker = gpu_memory.active()
        if memtracker is not None and memtracker.device is not self.device:
            memtracker = None
        return trace.active(), memtracker

    def _epoch(self, step, tracer, memtracker) -> EpochResult:
        """Run one epoch (``step()`` returns its metrics) and account it."""
        epoch = self.epochs_run
        t0 = self.device.elapsed_s()
        k0 = self.device.stats.kernel_count
        metrics = step()
        if tracer is not None:
            tracer.end_epoch(self.device, epoch, t0)
        if memtracker is not None:
            memtracker.end_epoch()
        result = EpochResult(
            epoch=epoch,
            metrics=metrics,
            sim_time_s=self.device.elapsed_s() - t0,
            kernels=self.device.stats.kernel_count - k0,
        )
        if epoch == 0:
            self._first_epoch_s = result.sim_time_s
        else:
            self._later_epochs_s += result.sim_time_s
        self.epochs_run += 1
        self.history.append(result)
        del self.history[:-HISTORY_WINDOW]
        return result

    def train_to_target(
        self,
        metric: str,
        target: float,
        mode: str = "min",
        max_epochs: int = 50,
        seed: int = 0,
    ) -> "TimeToTrain":
        """MLPerf-style time-to-train (the paper's planned metric update).

        Trains until ``metric`` crosses ``target`` (mode "min": <= target;
        mode "max": >= target) and reports the simulated time spent.  Its
        epochs count as the trainer's own, exactly as :meth:`run`'s do.
        """
        if mode not in ("min", "max"):
            raise ValueError("mode must be 'min' or 'max'")
        if max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {max_epochs}")
        tracer, memtracker = self._observers()
        rng = np.random.default_rng(seed)

        def step() -> dict:
            return self.workload.train_epoch(rng)

        start = self.device.elapsed_s()
        for epoch in range(max_epochs):
            metrics = self._epoch(step, tracer, memtracker).metrics
            if metric not in metrics:
                raise KeyError(
                    f"workload reports {sorted(metrics)}, not {metric!r}"
                )
            value = metrics[metric]
            reached = value <= target if mode == "min" else value >= target
            if reached:
                break
        return TimeToTrain(metric=metric, target=target, achieved=value,
                           epochs=epoch + 1,
                           sim_time_s=self.device.elapsed_s() - start,
                           converged=reached)

    def average_epoch_time(self, skip_first: bool = True) -> float:
        """Mean simulated time-per-epoch (first epoch skipped as warm-up)."""
        if skip_first and self.epochs_run > 1:
            return self._later_epochs_s / (self.epochs_run - 1)
        if not self.epochs_run:
            return 0.0
        return (self._first_epoch_s + self._later_epochs_s) / self.epochs_run
