"""Unit tests for the insight engine: provenance, diagnosis, gates, CLI.

The acceptance bar for the differential diagnoser is concrete: perturb a
committed baseline and the failing gate must *name* the regressed workload
and the stream the time moved to, not just report an aggregate miss.
"""

import json

import pytest

from repro.canonical import report_digest
from repro.core import executor
from repro.profiling import insights, report as report_mod
from tests.cli_helpers import run_cli


@pytest.fixture(scope="module")
def dgcn_report():
    return insights.insights_report("DGCN", scale="test", epochs=1)


class TestManifest:
    def test_sim_digest_is_stable(self):
        assert insights.sim_digest() == insights.sim_digest()
        assert len(insights.sim_digest()) == 64

    def test_manifest_pins_run_parameters(self):
        m = insights.build_manifest("DGCN", scale="test", epochs=3, seed=7,
                                    gpus=2, parts=4)
        d = m.as_dict()
        assert d["workload"] == "DGCN"
        assert (d["scale"], d["epochs"], d["seed"]) == ("test", 3, 7)
        assert (d["gpus"], d["parts"]) == (2, 4)
        assert d["sim_digest"] == insights.sim_digest()
        assert d["source_digest"]
        assert d["analysis_cache"] is None
        assert d["capture_replay"] is False
        with pytest.raises(Exception):  # frozen provenance record
            m.workload = "other"

    def test_report_embeds_manifest(self, dgcn_report):
        m = dgcn_report["manifest"]
        assert m["workload"] == "DGCN"
        assert m["epochs"] == 1 and m["gpus"] == 1

    def test_digest_ignores_source_hash_only(self, dgcn_report):
        mutated = json.loads(json.dumps(dgcn_report))
        mutated["manifest"]["source_digest"] = "f" * 64
        assert (report_digest(mutated, "insights_digest", "manifest.source_digest")
                == dgcn_report["insights_digest"])
        mutated["wall_us"] += 1.0
        assert (report_digest(mutated, "insights_digest", "manifest.source_digest")
                != dgcn_report["insights_digest"])


class TestReportShape:
    def test_summaries_cover_all_bound_classes(self, dgcn_report):
        assert tuple(dgcn_report["bound_summary"]) == insights.BOUND_CLASSES
        shares = sum(v["share"]
                     for v in dgcn_report["bound_summary"].values())
        assert shares == pytest.approx(1.0, abs=1e-6)

    def test_sites_sorted_by_duration(self, dgcn_report):
        durs = [s["duration_us"] for s in dgcn_report["sites"]]
        assert durs == sorted(durs, reverse=True)

    def test_kernel_sites_carry_roofline_fields(self, dgcn_report):
        kernel_sites = [s for s in dgcn_report["sites"] if "launches" in s]
        assert kernel_sites
        for s in kernel_sites:
            assert s["roof_basis"] in ("fp32", "int32", "memory")
            assert s["pct_of_roof"] >= 0.0
            assert s["arithmetic_intensity"] >= 0.0


class TestDiff:
    def test_identical_reports_have_no_movers(self, dgcn_report):
        diff = insights.diff_insights(dgcn_report, dgcn_report)
        assert diff["kind"] == "insights"
        assert diff["movers"] == []
        assert diff["delta_us"] == 0.0
        assert insights.render_diff_lines(diff) == []

    def test_perturbed_site_is_named_with_full_share(self, dgcn_report):
        mutated = json.loads(json.dumps(dgcn_report))
        victim = mutated["sites"][0]
        victim["duration_us"] += 500.0
        diff = insights.diff_insights(dgcn_report, mutated)
        assert len(diff["movers"]) == 1
        mover = diff["movers"][0]
        assert mover["site"] == victim["site"]
        assert mover["stream"] == victim["stream"]
        assert mover["delta_us"] == pytest.approx(500.0)
        assert mover["share"] == pytest.approx(1.0)
        lines = insights.render_diff_lines(diff)
        assert any(victim["site"] in line for line in lines)

    def test_kind_detection(self, dgcn_report):
        assert insights._report_kind(dgcn_report) == "insights"
        assert insights._report_kind({"frontier": {"gpus1": 2}}) == "shard"
        assert insights._report_kind(
            {"workloads": {"X": {"prefetch_epochs_per_s": 1.0}}}) == "sample"
        assert insights._report_kind(
            {"workload_speedups": {"X": 2.0}}) == "hotpath"
        assert insights._report_kind({"note": "hi"}) == "unknown"

    def test_sparse_baseline_yields_no_movers(self):
        report = {"speedup": 2.0,
                  "workloads": {"KGNNL": {"speedup": 2.0}}}
        diff = insights.diff_insights({"speedup": 1e9}, report)
        assert diff["movers"] == []
        assert insights.render_diff_lines(diff) == []


class TestGateAttribution:
    """Acceptance criteria: a perturbed baseline makes the gate print
    top-N attribution naming the regressed workload and stream."""

    def test_hotpath_gate_names_workload_and_stream(self):
        baseline = {
            "speedup": 2.5, "workload_floor": 1.2,
            "workload_speedups": {"DGCN": 4.0, "STGCN": 1.7},
            "workload_tolerance": {"DGCN": 0.1, "STGCN": 0.1},
        }
        report = {
            "speedup": 2.4,
            "workloads": {"DGCN": {"speedup": 1.0},
                          "STGCN": {"speedup": 1.7}},
        }
        failures = executor.check_hotpath_regression(report, baseline)
        assert any(f.startswith("DGCN:") for f in failures)
        # STGCN held its committed ratio: it must not be flagged
        assert not any(f.startswith("STGCN:") for f in failures)
        attribution = [f for f in failures if "stream" in f]
        assert any("DGCN" in f and "stream kernels" in f for f in attribution)
        assert any(f.startswith("top movers (hotpath") for f in failures)

    def test_hotpath_hard_floor_applies_without_committed_ratio(self):
        baseline = {"speedup": 2.5, "workload_floor": 1.2}
        report = {"speedup": 2.5,
                  "workloads": {"TLSTM": {"speedup": 1.1}}}
        failures = executor.check_hotpath_regression(report, baseline)
        assert any(f.startswith("TLSTM:") and "hard floor 1.20x" in f
                   for f in failures)

    def test_shard_gate_names_config_and_stream(self):
        baseline = {"frontier": {"gpus1": 3, "gpus2": 5, "gpus4": 8,
                                 "offload": 6}}
        report = {"frontier": {"gpus1": 3, "gpus2": 4, "gpus4": 8,
                               "offload": 6}}
        failures = executor.check_shard_regression(report, baseline)
        assert any(f.startswith("gpus2:") for f in failures)
        assert any("gpus2" in f and "stream halo" in f for f in failures)

    def test_passing_gate_prints_nothing(self):
        baseline = {"speedup": 2.5,
                    "workload_speedups": {"DGCN": 4.0}}
        report = {"speedup": 2.5,
                  "workloads": {"DGCN": {"speedup": 4.0}}}
        assert executor.check_hotpath_regression(report, baseline) == []


class TestRenderers:
    def test_format_insights_mentions_key_facts(self, dgcn_report):
        text = report_mod.format_insights(dgcn_report)
        assert "DGCN" in text
        assert dgcn_report["insights_digest"][:12] in text
        for cls in insights.BOUND_CLASSES:
            assert cls in text

    def test_format_insights_diff_renders_movers(self, dgcn_report):
        mutated = json.loads(json.dumps(dgcn_report))
        mutated["sites"][0]["duration_us"] += 500.0
        diff = insights.diff_insights(dgcn_report, mutated)
        text = report_mod.format_insights_diff(diff)
        assert "insights diff" in text
        assert mutated["sites"][0]["site"] in text


class TestCLI:
    def test_insights_command_writes_report(self, capsys, tmp_path):
        out = tmp_path / "insights.json"
        res = run_cli(["insights", "dgcn", "-o", str(out)], capsys)
        assert res.code == 0
        payload = json.loads(out.read_text())
        assert payload["manifest"]["workload"] == "DGCN"
        assert payload["insights_digest"] == report_digest(
            payload, "insights_digest", "manifest.source_digest")
        assert "DGCN" in res.out

    def test_insights_diff_mode(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        report = insights.insights_report("DGCN", scale="test", epochs=1)
        mutated = json.loads(json.dumps(report))
        mutated["sites"][0]["duration_us"] += 500.0
        a.write_text(json.dumps(report))
        b.write_text(json.dumps(mutated))
        res = run_cli(["insights", "--diff", str(a), str(b)], capsys)
        assert res.code == 0
        assert "top movers" in res.out

    def test_insights_requires_workload_or_diff(self, capsys):
        res = run_cli(["insights"], capsys)
        assert res.code != 0
