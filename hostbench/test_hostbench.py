"""Harness tests for the host-time benchmark.

    python3 -m pytest hostbench -q

They check the benchmark itself: the layer clock restores what it patches,
tracing changes no simulated output, the layer self times add up to the
traced pass time, every workload runs end to end, and the command honours
its output contract.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402

#: a few operations of each workload, enough to reach every layer it uses
TINY = {
    "train-dispatch": ("DGCN", "PSAGE-MVL"),
    "train-replay": ("DGCN", "PSAGE-MVL"),
    "characterize": ("DGCN",),
    "sample-serve-shard": ("sample_ARGA", "serve_DGCN", "shard_ARGA-P4"),
}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "hostbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)


def test_uninstall_restores_every_patched_attribute():
    clock = layers.LayerClock()
    clock.install()
    patched = clock.patched()
    try:
        assert not clock.missing
        assert len(clock.entries) > 100
        for owner, attr, raw in patched:
            assert layers.current(owner, attr) is not raw
    finally:
        clock.uninstall()
    for owner, attr, raw in patched:
        assert layers.current(owner, attr) is raw
    assert not clock.patched()
    leftovers = [f"{name}.{attr}" for name, mod in list(sys.modules.items())
                 if name.startswith("repro")
                 for attr, value in vars(mod).items()
                 if getattr(value, "__module__", None) == layers.__name__]
    assert not leftovers


@pytest.fixture(scope="module", params=sorted(TINY))
def traced_pair(request):
    """(untraced pass, traced pass, traced ns, totals) of a tiny workload."""
    workload = workloads.make(request.param, seed=0, keys=TINY[request.param])
    workload.setup()
    assert not workload.setup_result.failed
    plain = workload.run_pass()
    clock = layers.LayerClock()
    with clock.installed():
        clock.take()
        t0 = time.perf_counter_ns()
        traced = workload.run_pass()
        dt = time.perf_counter_ns() - t0
        totals = clock.take()
    return request.param, plain, traced, dt, totals


def test_tracing_changes_no_simulated_output(traced_pair):
    _, plain, traced, _, _ = traced_pair
    assert not plain.failed and not traced.failed
    assert traced.outputs == plain.outputs
    assert traced.sim_s == plain.sim_s
    assert traced.kernels == plain.kernels


def test_layer_self_times_add_up_to_the_traced_pass(traced_pair):
    _, _, _, dt, totals = traced_pair
    assert sum(totals.self_ns) == totals.top_ns <= dt
    values = totals.values(1, dt, 1.0, 1.0)
    layer_sum = sum(values[m] for m in layers.SELF_METRIC.values())
    assert layer_sum + values["unattributed_s"] == pytest.approx(
        values["traced_pass_s"], rel=1e-12)
    assert set(values) == {name for name, _, _ in layers.METRICS}


def test_layer_contrasts(traced_pair):
    name, _, _, dt, totals = traced_pair
    v = totals.values(1, dt, 1.0, 1.0)
    if name == "train-dispatch":
        tensor = sum(v[f"tensor.{p}.self_s"]
                     for p in ("forward", "backward", "autograd", "optim"))
        assert tensor > 0.5 * v["traced_pass_s"]
        assert v["gpu.capture.replayed_epochs"] == 0
    if name == "train-replay":
        assert v["tensor.forward.calls"] == 0 == v["tensor.launch.calls"]
        assert v["gpu.capture.replayed_epochs"] == len(TINY[name])
        assert v["gpu.capture.fallbacks"] == 0
    if name == "characterize":
        assert v["profiling.listeners.calls"] > 0
        assert v["gpu.analysis.cold_calls"] > 0
    else:
        assert v["profiling.report.self_s"] == 0
    if name == "sample-serve-shard":
        assert v["serve.batches"] > 0 and v["serve.replay_share"] > 0.9
        assert v["train.loader.batches"] > 0


def test_replayed_epochs_equal_dispatched_epochs():
    outputs = []
    for name in ("train-dispatch", "train-replay"):
        workload = workloads.make(name, seed=5, keys=TINY[name])
        workload.setup()
        res = workload.run_pass()
        assert not workload.setup_result.failed and not res.failed
        outputs.append(res.outputs)
    assert outputs[0] == outputs[1]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.METRICS)
    import run

    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_cli_smoke(name):
    proc = _run("--workload", name, "--seconds", "0.5", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "pass_s", "kernels_per_s",
                                      "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_cli_traced_run_writes_a_valid_host_trace():
    proc = _run("--workload", "train-replay", "--seconds", "0.5",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {name for name, _, _ in layers.METRICS}
    from repro.profiling.trace import validate_chrome

    trace = json.loads(
        (HERE / "out" / "train-replay-seed0.host_trace.json").read_text())
    validate_chrome(trace)
    assert any(e.get("cat") == "gpu.capture.replay"
               for e in trace["traceEvents"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "train-dispatch", "--seconds", "1",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
