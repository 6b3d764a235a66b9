"""The ``python -m repro`` command table: the parse step alone against
junk values (every option, then a fuzz), explicit ``--epochs`` honored,
happy paths of ``trace``, ``shard`` and ``memstats``, and the device
gauges every ``--metrics-output`` run writes."""

import argparse
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import __main__ as cli
from repro.profiling import trace
from tests.cli_helpers import run_cli

PARSER = cli.build_parser()
(_COMMANDS,) = [action for action in PARSER._actions
                if isinstance(action, argparse._SubParsersAction)]
OWN = {name: sorted({flag for action in sub._actions
                     for flag in action.option_strings})
       for name, sub in _COMMANDS.choices.items()}
SPELLINGS = sorted({flag for flags in OWN.values() for flag in flags})
JUNK = ["0", "-1", "-3", "nan", "NaN", "", "inf", "2.5", "4,", ",", "0,5",
        "10,5", "1,2,3", "abc", "/nonexistent", "missing.json", "DGCN",
        "arga-p4"]


def _parse_code(argv) -> int:
    """Parse ``argv`` alone (no workload runs): 0 if it parses, else the
    code argparse exits with."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            PARSER.parse_args(argv)
        except SystemExit as exc:
            return exc.code
    return 0


def test_each_option_with_each_junk_value_parses_or_exits_2():
    # the value twice: ``--diff`` takes two, and without a flag it lands on
    # the positional key
    for command, flags in OWN.items():
        for flag in [None, *flags]:
            for value in JUNK:
                argv = [command, *([flag] if flag else []), value, value]
                assert _parse_code(argv) in (0, 2), argv


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(sorted(cli.COMMANDS) + JUNK), max_size=1),
       st.lists(st.sampled_from(SPELLINGS + JUNK), max_size=6))
def test_parse_fuzz_exits_0_or_2_or_parses(head, tail):
    assert _parse_code(head + tail) in (0, 2), head + tail


def test_missing_baseline_exits_before_any_run(capsys, tmp_path,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    res = run_cli(["sample", "--baseline", "/nonexistent"], capsys)
    assert res.code == 2
    assert "--baseline: no such file: '/nonexistent'" in res.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, epochs", [
    (["sample", "arga", "--epochs", "1"], 1),
    (["shard", "arga-p2", "--epochs", "1"], 1),
    (["insights", "dgcn", "--epochs", "1"], 1),
    (["sample", "arga"], 2),
    (["shard", "arga-p2"], 2),
    (["insights", "dgcn"], 2),
])
def test_epochs_flag_is_honored(argv, epochs, capsys):
    res = run_cli(argv, capsys)
    assert res.code == 0
    header = res.out.splitlines()[0]
    assert f"epochs={epochs}," in header or f"epochs={epochs})" in header


def test_trace_exports_valid_chrome_with_hbm_counters(capsys, tmp_path):
    out = tmp_path / "dgcn.json"
    res = run_cli(["trace", "dgcn", "-o", str(out)], capsys)
    assert res.code == 0
    assert res.out.startswith("== DGCN (scale=test, epochs=1, gpus=1)")
    data = json.loads(out.read_text())
    trace.validate_chrome(data)
    phases = {event["ph"] for event in data["traceEvents"]}
    assert {"X", "C"} <= phases


def test_shard_named_config_digest_is_stable(capsys):
    first = run_cli(["shard", "arga-p2"], capsys)
    second = run_cli(["shard", "arga-p2"], capsys)
    assert first.code == second.code == 0
    assert first.out.startswith("== ARGA-P2 (ARGA,")
    digests = [[line for line in res.out.splitlines()
                if "shard digest" in line] for res in (first, second)]
    assert digests[0] and digests[0] == digests[1]


def test_memstats_writes_metrics_json_and_prom(capsys, tmp_path):
    out = tmp_path / "m.json"
    res = run_cli(["memstats", "DGCN", "--metrics-output", str(out)], capsys)
    assert res.code == 0
    assert "   memory digest " in res.out
    assert f"wrote {out} and {out.with_suffix('.prom')}" in res.out
    assert "repro_memory_peak_live_bytes" in json.loads(out.read_text())
    assert out.with_suffix(".prom").read_text()


#: one keyed run of each command taking ``--metrics-output``, and the
#: devices it simulates
METRICS_RUNS = [
    (["profile", "DGCN", "--scale", "test"], {"0"}),
    (["memstats", "DGCN"], {"0"}),
    (["trace", "dgcn"], {"0"}),
    # a DDP peer replicates device 0's stream; it is not simulated
    (["trace", "tlstm", "--gpus", "2"], {"0"}),
    (["serve", "dgcn", "--requests", "8"], {"0"}),
    (["sample", "arga", "--fanouts", "4,3", "--epochs", "1"], {"0"}),
    (["shard", "arga-p2", "--epochs", "1"], {"0", "1"}),
    (["insights", "dgcn", "--epochs", "1"], {"0"}),
    (["insights", "dgcn", "--epochs", "1", "--gpus", "2"], {"0"}),
]


def test_metrics_runs_cover_every_metrics_command():
    assert {argv[0] for argv, _ in METRICS_RUNS} == {
        name for name, row in cli.COMMANDS.items()
        if "metrics-output" in row.options}


@pytest.mark.parametrize("argv, devices", METRICS_RUNS)
def test_metrics_output_carries_each_simulated_device(argv, devices, capsys,
                                                      tmp_path, monkeypatch):
    from repro.profiling import metrics

    monkeypatch.chdir(tmp_path)
    metrics.reset()
    res = run_cli([*argv, "--metrics-output", "m.json"], capsys)
    assert res.code == 0
    series = json.loads((tmp_path / "m.json").read_text())[
        "repro_device_kernel_seconds_total"]["series"]
    assert set(series) == {f'{{device="{d}"}}' for d in devices}
    assert all(seconds > 0 for seconds in series.values())
