"""Partition-invariance and capacity-asymmetry tests for sharded training.

Two promises anchor the shard subsystem.  Numerically, partitioned
full-batch GCN training is the same computation as whole-graph training:
per-part forward rows are bitwise equal to the whole-matrix rows (CSR row
slicing preserves per-row column order) and per-part gradients sum to the
full-batch gradient by linearity, so 1/2/4-part runs agree to fp64
rounding.  Capacity-wise, sharding is what makes an over-HBM graph
trainable at all: the same graph that OOMs a single simulated device in
strict mode fits when split over four, or when staged out-of-core.
"""

import numpy as np
import pytest

from repro.gpu.memory import OOMError
from repro.train import sharded
from repro.train.sharded import part_geometries, shard_run, train_numeric

#: small enough for fp64 reference math, large enough for real halos
SMALL = dict(nodes=768, feat_dim=48, seed=0)
HIDDEN = 16

#: adjacency + features alone exceed the 16 GiB HBM of one simulated device
BIG = dict(nodes=600_000, feat_dim=8192, seed=0)
HBM_BYTES = 16 * (1 << 30)


def _dataset():
    return sharded._shard_dataset(SMALL["nodes"], SMALL["feat_dim"],
                                  SMALL["seed"])


def _plan(parts):
    return sharded._shard_plan(SMALL["nodes"], SMALL["feat_dim"],
                               SMALL["seed"], parts)


class TestNumericEquivalence:
    def test_partitioned_matches_whole_graph(self):
        ds = _dataset()
        ref = train_numeric(ds, _plan(1), HIDDEN, epochs=3, lr=0.2, seed=0)
        for parts in (2, 4):
            got = train_numeric(ds, _plan(parts), HIDDEN, epochs=3, lr=0.2,
                                seed=0)
            np.testing.assert_allclose(got["losses"], ref["losses"],
                                       rtol=0, atol=1e-12)
            for key in ref["grads"]:
                np.testing.assert_allclose(got["grads"][key],
                                           ref["grads"][key],
                                           rtol=0, atol=1e-10)
            for key in ref["params"]:
                np.testing.assert_allclose(got["params"][key],
                                           ref["params"][key],
                                           rtol=0, atol=1e-10)

    def test_shard_run_reports_reference_losses(self):
        report, _ = shard_run("ARGA", parts=2, hidden=HIDDEN, epochs=2,
                              **SMALL)
        ref = train_numeric(_dataset(), _plan(2), HIDDEN, epochs=2, lr=0.2,
                            seed=0)
        assert report["mode"] == "numeric"
        assert report["losses"] == pytest.approx(ref["losses"], abs=1e-15)
        assert report["loss_final"] == report["losses"][-1]

    def test_offload_reports_parallel_losses(self):
        par, _ = shard_run("ARGA", parts=4, hidden=HIDDEN, epochs=2, **SMALL)
        off, _ = shard_run("ARGA", parts=4, offload=True, hidden=HIDDEN,
                           epochs=2, **SMALL)
        # same plan, same math — only the execution schedule differs
        assert off["losses"] == par["losses"]
        assert par["gpus"] == 4 and off["gpus"] == 1
        assert off["offload"] and not par["offload"]
        # staging every partition through the host moves far more PCIe bytes
        assert off["h2d_bytes"] > par["h2d_bytes"]
        # and out-of-core trades the NVLink halo traffic away entirely
        assert par["halo_bytes"] > 0 and off["halo_bytes"] == 0

    def test_part_geometries_cover_graph(self):
        ds = _dataset()
        geoms = part_geometries(ds.graph, _plan(4), ds.train_idx)
        assert sum(g.n_owned for g in geoms) == ds.graph.num_nodes
        assert sum(g.n_train for g in geoms) == ds.train_idx.size
        # every halo replica has exactly one owner exporting it
        assert sum(g.n_halo for g in geoms) == sum(g.rev_halo for g in geoms)
        for g in geoms:
            assert g.n_local == g.n_owned + g.n_halo
            assert g.nnz >= g.n_owned  # self-loops guarantee one nnz per row


class TestCapacityAsymmetry:
    def test_whole_graph_oomes_under_strict(self):
        with pytest.raises(OOMError):
            shard_run("ARGA", parts=1, hidden=64, epochs=1, mode="capacity",
                      strict=True, **BIG)

    def test_four_parts_fit_under_strict(self):
        report, _ = shard_run("ARGA", parts=4, hidden=64, epochs=1,
                              mode="capacity", strict=True, **BIG)
        assert report["oom_events"] == 0
        assert 0 < report["peak_reserved_bytes"] <= HBM_BYTES

    def test_offload_fits_under_strict(self):
        report, _ = shard_run("ARGA", parts=4, offload=True, hidden=64,
                              epochs=1, mode="capacity", strict=True, **BIG)
        assert report["oom_events"] == 0
        assert report["gpus"] == 1
        assert 0 < report["peak_reserved_bytes"] <= HBM_BYTES

    def test_whole_graph_records_oom_when_not_strict(self):
        report, _ = shard_run("ARGA", parts=1, hidden=64, epochs=1,
                              mode="capacity", strict=False, **BIG)
        assert report["oom_events"] >= 1
        assert report["peak_reserved_bytes"] > HBM_BYTES


class TestNamedConfigResolution:
    """A named configuration fills only the parameters a call leaves unset."""

    def test_explicit_value_equal_to_a_default_wins(self):
        # 4 is also shard_run's own default for ``parts``
        report, _ = shard_run("ARGA-P2", parts=4, epochs=1)
        assert report["parts"] == report["gpus"] == 4
        assert report["epochs"] == 1
        assert report["name"] == "ARGA-P2"
        config = sharded.SHARD_GOLDEN_CONFIGS["ARGA-P2"]
        assert (report["nodes"], report["feat_dim"], report["mode"]) == (
            config["nodes"], config["feat_dim"], config["mode"])

    def test_unset_parameters_take_the_config_then_the_defaults(self):
        report, _ = shard_run("ARGA-P2", epochs=1)
        assert report["parts"] == 2
        bare, _ = shard_run("ARGA", nodes=768, epochs=1)
        assert bare["parts"] == sharded.SHARD_PARAMS["parts"].default
        assert bare["feat_dim"] == sharded.SHARD_PARAMS["feat_dim"].default
        assert bare["name"] == "ARGA-P4"
