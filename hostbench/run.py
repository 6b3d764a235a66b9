"""Host-time benchmark of the simulator: four workloads, one process each.

    python3 hostbench/run.py --workload train-dispatch [--seed 0]
        [--seconds 10] [--trace 0|1]
    python3 hostbench/run.py --workload all      # every workload, serially

``--trace 0`` reports the end-to-end metrics: set-up time (median of
several fresh set-ups plus the import), host time per pass, simulated
kernels per host second and the peak RSS of the timed passes.
``--trace 1`` reports the per-layer host-time split of traced passes
(``layers.py``) and writes one traced pass as a Chrome trace.  Every pass
checks its simulated outputs.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full result, with the run manifest, is written to ``hostbench/out/``.
Workloads, metrics and the layer table are documented in
``hostbench/LAYERS.md``.
"""

import os
import sys
import time

T_START = time.perf_counter()

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# One BLAS/OpenMP thread: this must happen before numpy is first imported.
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# serial execution and the default analysis-cache discipline
os.environ["REPRO_JOBS"] = "1"
os.environ.pop("REPRO_ANALYSIS_CACHE", None)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("train-dispatch", "train-replay", "characterize",
             "sample-serve-shard")
#: fresh set-ups per timed run; setup_s reports their median
SETUPS = 3
#: (name, unit) of the end-to-end metrics a ``--trace 0`` run reports
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("kernels_per_s", "1/s"),
              ("peak_rss_mb", "MiB"))
#: a p90 needs ten samples beyond it
P90_MIN_PASSES = 100
#: pass_s sums, over a pass's operations and its remaining glue, this
#: quantile of each one's host times across the run's passes (their minimum
#: below ten passes): co-tenants on a small shared host slow a process ~1.5x
#: in bursts of seconds, which moves a run's median but not its fast samples
PASS_QUANTILE = 0.1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def load_program():
    """Import ``repro`` from this checkout's ``src`` (never an installed
    copy) and the harness modules."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"hostbench: no repro package under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        sys.exit(f"hostbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")
    import layers
    import workloads

    return layers, workloads


class Tally:
    """Operations attempted and failed over a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, res) -> None:
        self.attempted += len(res.outputs)
        self.failures += [f"{op}: {why}" for op, why in res.failed.items()]


def fast(times: list[float]) -> float:
    """The :data:`PASS_QUANTILE` of ``times`` (minimum below ten samples)."""
    if len(times) < 10:
        return min(times)
    return statistics.quantiles(times, n=round(1 / PASS_QUANTILE))[0]


def pass_seconds(passes: list[tuple]) -> float:
    """Host seconds of an uncontended pass: the sum over the pass's
    operations, and the time outside them, of each one's :func:`fast`
    time across ``passes``."""
    ops = passes[0][1].host_ns
    per_op = sum(fast([res.host_ns[op] for _, res, _ in passes])
                 for op in ops)
    glue = fast([dt - sum(res.host_ns.values()) for dt, res, _ in passes])
    return (per_op + glue) / 1e9


def reset_peak_rss() -> bool:
    """Restart the kernel's peak-RSS counter (Linux); False if unsupported.

    Free heap pages go back to the kernel first, so the peak counts what
    the passes keep alive, not what the set-ups left fragmented.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):  # not glibc
        pass
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb(since_reset: bool) -> float:
    if since_reset:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_passes(workload, seconds: float, clock=None) -> list[tuple]:
    """Passes until ``seconds`` have elapsed (at least one):
    ``[(host ns, PassResult, layer Totals or None)]``."""
    out = []
    deadline = time.perf_counter() + seconds
    while True:
        if clock is not None:
            clock.take()  # drop calls made between passes
        t0 = time.perf_counter_ns()
        res = workload.run_pass()
        dt = time.perf_counter_ns() - t0
        out.append((dt, res, clock.take() if clock is not None else None))
        if time.perf_counter() >= deadline:
            return out


def timed_run(workloads, name: str, seed: int, seconds: float,
              import_s: float, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics: ``SETUPS`` fresh set-ups, then timed passes."""
    setup_times, workload = [], None
    for _ in range(SETUPS):
        workload = None
        gc.collect()
        workloads.reset_program_caches()
        workload = workloads.make(name, seed)
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
        tally.add(workload.setup_result)
    gc.collect()
    since_reset = reset_peak_rss()
    passes = run_passes(workload, seconds)
    for _, res, _ in passes:
        tally.add(res)
    times = [dt / 1e9 for dt, _, _ in passes]
    pass_s = pass_seconds(passes)
    values = {
        "setup_s": import_s + statistics.median(setup_times),
        "pass_s": pass_s,
        "kernels_per_s": passes[0][1].kernels / pass_s,
        "peak_rss_mb": peak_rss_mb(since_reset),
    }
    detail = {
        "import_s": import_s,
        "setup_times_s": setup_times,
        "pass_times_s": times,
        "pass_s.median": statistics.median(times),
        "pass_kernels": passes[0][1].kernels,
        "sim_s": passes[0][1].sim_s,
        "peak_rss_scope": "timed passes" if since_reset else "process",
        "samples": {"setup_s": len(setup_times), "pass_s": len(times),
                    "kernels_per_s": len(times), "peak_rss_mb": 1},
    }
    if len(times) >= P90_MIN_PASSES:
        detail["pass_s.p90"] = statistics.quantiles(times, n=10)[-1]
    return values, detail


def traced_run(layers, workloads, name: str, seed: int, seconds: float,
               tally: Tally) -> tuple[dict, dict]:
    """Per-layer metrics: untraced and traced blocks of passes, alternated,
    plus one extra traced pass whose spans are exported."""
    workload = workloads.make(name, seed)
    workload.setup()
    tally.add(workload.setup_result)
    gc.collect()
    clock = layers.LayerClock()
    plain, traced, chrome = [], [], None
    for _ in range(2):
        plain += run_passes(workload, seconds / 4)
        with clock.installed():
            if chrome is None:
                clock.take()
                with clock.recording() as spans:
                    t0 = time.perf_counter_ns()
                    res = workload.run_pass()
                    dt = time.perf_counter_ns() - t0
                clock.take()
                tally.add(res)
                chrome = clock.chrome(spans, t0, dt, f"{name} pass")
            traced += run_passes(workload, seconds / 4, clock)
    for _, res, _ in plain + traced:
        tally.add(res)
    totals = traced[0][2]
    for _, _, more in traced[1:]:
        totals += more
    plain_s = pass_seconds(plain)
    traced_s = pass_seconds(traced)
    values = totals.values(len(traced), sum(dt for dt, _, _ in traced),
                           plain_s, traced_s)
    detail = {
        "untraced_passes": len(plain),
        "traced_passes": len(traced),
        "untraced_pass_s": plain_s,
        "traced_pass_fast_s": traced_s,
        "missing_entry_points": clock.missing,
        "wrapped_entry_points": len(clock.entries),
        "chrome": chrome,
    }
    return values, detail


def manifest(name: str, seed: int, trace: int) -> dict:
    """What identifies a result: host, versions, seed, program digests."""
    import numpy as np
    from repro.gpu import analysis_cache

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas = "unknown"
    out = {
        "workload": name, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "analysis_cache": analysis_cache.enabled(),
    }
    try:
        from repro.profiling.insights import build_manifest

        run = build_manifest(name, scale="test", seed=seed).as_dict()
        out["sim_digest"] = run["sim_digest"]
        out["source_digest"] = run["source_digest"]
    except (ImportError, AttributeError, TypeError, KeyError) as exc:
        out["digests_unavailable"] = repr(exc)
    return out


def run_one(args) -> int:
    layers, workloads = load_program()
    import_s = time.perf_counter() - T_START
    tally = Tally()
    if args.trace:
        values, detail = traced_run(layers, workloads, args.workload,
                                    args.seed, args.seconds, tally)
        units = {name: unit for name, unit, _ in layers.METRICS}
    else:
        values, detail = timed_run(workloads, args.workload, args.seed,
                                   args.seconds, import_s, tally)
        units = dict(END_TO_END)
    failed = len(tally.failures)
    for line in tally.failures:
        print(f"hostbench: FAILED {line}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    chrome = detail.pop("chrome", None)
    if chrome is not None:
        from repro.profiling.trace import validate_chrome

        validate_chrome(chrome)
        (OUT / f"{stem}.host_trace.json").write_text(json.dumps(chrome))
    result = {
        "manifest": manifest(args.workload, args.seed, args.trace),
        "attempted": tally.attempted, "failed": failed,
        "error_rate": failed / tally.attempted if tally.attempted else 0.0,
        "failures": tally.failures,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
        "detail": detail,
    }
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")

    print(f"{args.workload}  seed={args.seed}  trace={args.trace}  "
          f"nproc={os.cpu_count()}")
    if args.trace:
        print(f"  traced passes {detail['traced_passes']}, untraced "
              f"{detail['untraced_passes']}, wrapped entry points "
              f"{detail['wrapped_entry_points']}, missing "
              f"{len(detail['missing_entry_points'])}")
        for name, value in values.items():
            print(f"  {name:<30} {value:>16.9g} {units[name]}")
    else:
        n = detail["samples"]
        print(f"  {'setup_s':<14} {values['setup_s']:>14.6f} s      median "
              f"of {n['setup_s']} set-ups + import {import_s:.3f} s")
        print(f"  {'pass_s':<14} {values['pass_s']:>14.6f} s      "
              f"sum of per-operation {'p10' if n['pass_s'] >= 10 else 'min'}"
              f" over {n['pass_s']} passes (median pass "
              f"{detail['pass_s.median']:.6f} s)")
        p90 = detail.get("pass_s.p90")
        print(f"  {'pass_s.p90':<14} " + (
            f"{p90:>14.6f} s      p90 of {n['pass_s']} passes" if p90
            else f"{'-':>14}        needs {P90_MIN_PASSES} passes"))
        print(f"  {'kernels_per_s':<14} {values['kernels_per_s']:>14.1f} "
              f"1/s    {detail['pass_kernels']} kernels per pass / pass_s")
        print(f"  {'peak_rss_mb':<14} {values['peak_rss_mb']:>14.1f} MiB    "
              f"peak over the {detail['peak_rss_scope']}")
        print(f"  {'sim_s':<14} {detail['sim_s']!r:>14} sim-s  "
              f"per pass, exact over {n['pass_s']} passes")
    print(f"  {'error_rate':<14} {result['error_rate']:>14.6f} ratio  "
          f"{failed} failed of {tally.attempted} operations")
    print(json.dumps({
        "correct": failed == 0, "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}")
            total["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
