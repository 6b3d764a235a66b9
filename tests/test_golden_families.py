"""The golden mechanism, once per family: deleted is MISSING with the
family's regenerate hint, ``--update`` rewrites the committed bytes, and
tampered DIFFERS naming the field, digest line last."""

import json

import pytest

from repro.testing import golden
from tests.cli_helpers import run_cli

FAMILIES = list(golden.FAMILIES.values())


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda fam: fam.name)
def test_missing_update_tamper(fam, tmp_path, monkeypatch, capsys):
    key = fam.keys[0]
    argv = ["golden", key, *([fam.flag] if fam.flag else [])]
    committed = golden.path(fam.name, key).read_bytes()
    monkeypatch.setenv("REPRO_GOLDEN_DIR", str(tmp_path))

    res = run_cli(argv, capsys)
    assert res.code == 1
    assert f"{key}: MISSING (missing snapshot: no golden {fam.noun}" in res.out
    assert res.out.rstrip().endswith(f"`{fam.regenerate}`")

    assert run_cli([*argv, "--update"], capsys).code == 0
    assert golden.path(fam.name, key).read_bytes() == committed

    snapshot = golden.load(fam.name, key)
    field = next(f for f in sorted(snapshot) if type(snapshot[f]) is int
                 and f not in (*fam.defaults, "version"))
    snapshot.update({field: snapshot[field] + 1, fam.digest: "0" * 64})
    golden.save(fam.name, key, snapshot)
    res = run_cli(argv, capsys)
    head, *lines = res.out.splitlines()
    assert (res.code, head) == (1, f"{key}: DIFFERS")
    diffs = [line.strip() for line in lines if line.startswith("  ")]
    assert any(d.startswith(f"{field}: expected") for d in diffs), diffs
    assert diffs[-1].startswith(f"{fam.digest}: expected"), diffs


def test_every_golden_file_is_canonical_in_one_family(capsys):
    files = sorted(golden.GOLDEN_DIR.glob("*.json"))
    assert files
    for file in files:
        owners = [fam.name for fam in FAMILIES for key in fam.domain
                  if golden.path(fam.name, key).name == file.name]
        assert len(owners) == 1, (file.name, owners)
        text = file.read_text()  # exactly what ``save`` writes for it
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" \
            == text, file.name
    usage = run_cli(["golden", "--help"], capsys).out
    assert all(fam.flag in usage for fam in FAMILIES if fam.flag)


@pytest.mark.parametrize("argv, code, message", [
    (["golden", "DGCN", "--serve", "--shard"], 2,
     "argument --shard: not allowed with argument --serve"),
    (["golden", "ARGA", "--serve"], 2, "['DGCN', 'PSAGE-MVL', 'PSAGE-NWP']"),
    (["golden", "ARGA", "--serve", "--update"], 2,
     "['DGCN', 'PSAGE-MVL', 'PSAGE-NWP']"),
    (["profile", "NOPE"], 1, "unknown workload 'NOPE'"),
    (["sample", "ARGA", "--fanouts", "abc"], 2, "argument --fanouts"),
    (["sample", "ARGA", "--fanouts", "4,"], 2, "argument --fanouts"),
    (["insights", "--diff", "/nonexistent", "x.json"], 2, "'/nonexistent'"),
    (["sample", "--baseline", "/nonexistent"], 2, "'/nonexistent'"),
    (["profile", "DGCN", "--epochs", "0"], 2, "argument --epochs"),
    (["memstats", "DGCN", "--epochs", "-1"], 2, "argument --epochs"),
    (["trace", "DGCN", "--gpus", "0"], 2, "argument --gpus"),
    (["insights", "DGCN", "--gpus", "-2"], 2, "argument --gpus"),
    (["golden", "DGCN", "--jobs", "-3"], 2, "argument --jobs"),
    (["profile", "DGCN", "--seed", "-1"], 2, "argument --seed"),
    (["fig2", "--qps", "5"], 2, "unrecognized arguments: --qps 5"),
    (["table1", "--gpus", "0"], 2, "unrecognized arguments: --gpus 0"),
    (["memstats", "DGCN", "--metrics-output", "/nonexistent/m.json"], 2,
     "argument --metrics-output: no such directory: '/nonexistent'"),
    (["trace", "dgcn", "-o", "/nonexistent/t.json"], 2,
     "argument -o/--output: no such directory: '/nonexistent'"),
    (["bench", "--workload", "kgnnl", "--quick", "--hotpath-output",
      "/nonexistent/h.json"], 2,
     "argument --hotpath-output: no such directory: '/nonexistent'"),
])
def test_bad_input_fails_by_name(argv, code, message, capsys):
    res = run_cli(argv, capsys)
    assert res.code == code
    assert message in res.out + res.err
