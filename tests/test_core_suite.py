"""GNNMark core: registry (Table I), characterization pipeline, suite API."""

import gc
import weakref

import numpy as np
import pytest

from repro import GNNMark
from repro.core import profile_workload, registry
from repro.profiling import trace


class TestRegistry:
    def test_all_nine_workloads_present(self):
        assert set(registry.WORKLOAD_KEYS) == {
            "DGCN", "GW", "KGNNL", "KGNNH", "PSAGE-MVL", "PSAGE-NWP",
            "STGCN", "TLSTM", "ARGA",
        }

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            registry.get("RESNET")

    def test_unknown_scale_raises(self):
        with pytest.raises(ValueError):
            registry.get("TLSTM").build(scale="enormous")

    def test_table1_rows_complete(self):
        rows = registry.table1_rows()
        assert len(rows) == 9
        for row in rows:
            assert row["model"] and row["dataset"] and row["framework"]

    def test_framework_attribution(self):
        """DGL vs PyG origins, as in the paper's Table I."""
        assert registry.get("PSAGE-MVL").framework == "DGL"
        assert registry.get("TLSTM").framework == "DGL"
        assert registry.get("KGNNL").framework == "PyG"
        assert registry.get("ARGA").framework == "PyG"

    def test_ddp_modes(self):
        assert registry.get("ARGA").ddp == "none"
        assert registry.get("PSAGE-MVL").ddp == "replicate"
        assert registry.get("DGCN").ddp == "batch"

    def test_every_workload_builds_at_test_scale(self):
        for key in registry.WORKLOAD_KEYS:
            workload = registry.get(key).build(scale="test")
            assert hasattr(workload, "train_epoch")
            assert hasattr(workload, "optimizer")


class TestProfileWorkload:
    @pytest.fixture(scope="class")
    def tlstm_profile(self):
        return profile_workload("TLSTM", scale="test", epochs=1)

    def test_profile_contains_all_views(self, tlstm_profile):
        p = tlstm_profile
        assert sum(p.op_breakdown().values()) == pytest.approx(1.0)
        assert sum(p.instruction_mix().values()) == pytest.approx(1.0)
        assert p.throughput()["gflops"] > 0
        assert sum(p.stalls().values()) == pytest.approx(1.0)
        cache = p.cache()
        assert 0 <= cache["l1_hit"] <= 1
        assert 0 <= cache["divergent_loads"] <= 1
        assert 0 <= p.transfer_sparsity() <= 1
        assert p.launch_count > 0
        assert len(p.epoch_times) == 1

    def test_setup_excluded_from_profile(self, tlstm_profile):
        """Weight-upload transfers happen before instrumentation attaches."""
        labels = {s.label for s in tlstm_profile.sparsity.samples}
        assert "param" not in labels

    def test_epoch_time_positive(self, tlstm_profile):
        assert tlstm_profile.epoch_times[0] > 0

    def test_profile_pins_neither_workload_nor_device(self, monkeypatch):
        """A profile holds aggregates: once it returns, the workload it
        trained and that workload's device can be collected."""
        runs = []
        build = registry.WorkloadSpec.build

        def recording_build(spec, device=None, scale="profile"):
            workload = build(spec, device=device, scale=scale)
            runs.append((weakref.ref(workload), weakref.ref(device)))
            return workload

        monkeypatch.setattr(registry.WorkloadSpec, "build", recording_build)
        profile = profile_workload("DGCN", scale="test", epochs=2)
        gc.collect()
        assert len(runs) == 1
        assert [ref() for ref in runs[0]] == [None, None]
        assert profile.memory_footprint()["model_bytes"] > 0

    def test_profile_holds_at_most_one_epoch_of_log(self, monkeypatch):
        """The profilers fold at every epoch end with the tracer, so the
        device's log never holds more than the epoch being folded."""
        seen = []
        end_epoch = trace.Tracer.end_epoch

        def recording_end_epoch(tracer, device, index, start_s):
            stats = device.stats
            seen.append((len(device.log),
                          stats.kernel_count + stats.transfer_count))
            end_epoch(tracer, device, index, start_s)

        monkeypatch.setattr(trace.Tracer, "end_epoch", recording_end_epoch)
        profile = profile_workload("DGCN", scale="test", epochs=4)
        assert len(seen) == 4
        events = [0] + [total for _, total in seen]
        for (held, _), before, after in zip(seen, events, events[1:]):
            assert 0 < held <= after - before
        assert profile.kernels.total_launches == profile.launch_count


class TestGNNMarkFacade:
    @pytest.fixture(scope="class")
    def mark(self):
        return GNNMark(scale="test")

    @pytest.fixture(scope="class")
    def mini_suite(self, mark):
        return mark.characterize_suite(keys=["TLSTM", "KGNNL"], epochs=1)

    def test_workload_listing(self, mark):
        assert len(mark.workloads()) == 9

    def test_render_table1(self, mark):
        text = mark.render_table1()
        assert "PinSAGE" in text and "METR-LA" in text

    def test_figure_renderers_produce_rows(self, mark, mini_suite):
        for render in [mark.render_op_breakdown, mark.render_instruction_mix,
                       mark.render_throughput, mark.render_stalls,
                       mark.render_cache, mark.render_sparsity,
                       mark.render_sparsity_timeline]:
            text = render(mini_suite)
            assert "TLSTM" in text and "KGNNL" in text

    def test_suite_mean_helper(self, mini_suite):
        means = mini_suite.mean_over_workloads(lambda p: p.instruction_mix())
        assert set(means) == {"fp32", "int32", "other"}
        assert sum(means.values()) == pytest.approx(1.0)

    def test_suite_getitem(self, mini_suite):
        assert mini_suite["TLSTM"].key == "TLSTM"
        assert set(mini_suite.keys()) == {"TLSTM", "KGNNL"}

    def test_render_table1_empty_rows(self, mark):
        # regression: used to crash (rows[0] / bare max() over no rows)
        assert mark.render_table1(rows=[]) == "(no workloads)"

    def test_figure_renderers_empty_suite(self, mark):
        from repro.core.characterize import SuiteProfile

        empty = SuiteProfile()
        for render in [mark.render_op_breakdown, mark.render_instruction_mix,
                       mark.render_throughput, mark.render_stalls,
                       mark.render_cache, mark.render_sparsity,
                       mark.render_sparsity_timeline]:
            text = render(empty)
            assert "(no workloads)" in text
        assert "(no workloads)" in mark.render_scaling({})
