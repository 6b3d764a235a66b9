"""The mode parameter tables (``repro.core.params``): each mode's command
offers exactly its table's CLI rows, and the CLI and the runner accept or
reject each value alike, the runner before it builds anything."""

import contextlib
import io
import math

import pytest

from repro import __main__ as cli
from repro.serve import server
from repro.train import loader, sharded

PARSER = cli.build_parser()

#: mode command -> (a workload key it runs, its runner)
MODES = {
    "serve": ("dgcn", server.serve_run),
    "sample": ("arga", loader.sample_run),
    "shard": ("arga", sharded.shard_run),
}


class Reached(Exception):
    """The runner got past its parameter checks to building its run."""


def _reached(*args, **kwargs):
    raise Reached


def _probes(row):
    """(CLI text, runner value) pairs at and around the row's domain edge."""
    if row.choices is not None:
        return [(c, c) for c in row.choices] + [("bogus", "bogus")]
    if isinstance(row.default, tuple):
        return [("1", (1,)), ("0", (0,)), ("0,5", (0, 5)), ("", ())]
    values = [row.low - 1, row.low, row.low + 1]
    if row.kind is float:
        values.append(math.nan)
    return [(str(v), row.kind(v)) for v in values]


BOUNDED = [
    pytest.param(command, row, text, value,
                 id=f"{command}-{row.flag}={text!r}")
    for command in MODES
    for row in cli.COMMANDS[command].params.values()
    if row.cli and (row.low is not None or row.choices is not None)
    for text, value in _probes(row)
]


def _parses(argv) -> bool:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            PARSER.parse_args(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return False
    return True


@pytest.mark.parametrize("command", MODES)
def test_command_offers_exactly_its_tables_cli_rows(command):
    row = cli.COMMANDS[command]
    named = {option.replace("-", "_") for option in row.options}
    assert named & set(row.params) == {
        name for name, param in row.params.items() if param.cli}


@pytest.mark.parametrize("command, row, text, value", BOUNDED)
def test_cli_and_runner_accept_the_same_values(command, row, text, value,
                                               monkeypatch):
    key, run = MODES[command]
    # what each runner builds its devices with
    monkeypatch.setattr(server, "workload_run", _reached)
    monkeypatch.setattr(loader, "workload_run", _reached)
    monkeypatch.setattr(sharded, "MultiGPUSystem", _reached)
    parsed = _parses([command, key, f"--{row.flag}", text])
    try:
        run(key.upper(), **{row.name: value})
    except Reached:
        accepted = True
    except ValueError as exc:
        assert row.flag in str(exc)
        accepted = False
    assert parsed == accepted



def test_the_sample_bench_takes_no_nodes():
    from repro.core import executor

    with pytest.raises(TypeError, match="nodes"):
        executor.benchmark_sample(nodes=1000)
