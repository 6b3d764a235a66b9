"""Figure 9: strong scaling of GNN training on 1/2/4 GPUs (DDP + NVLink).

Paper anchors: DGCN, STGCN and GW show considerable gains; TLSTM does not
benefit (low-intensity serialized kernels); PSAGE *degrades* because its
DGL batch sampler is incompatible with DDP and replicates the training data
on every device; ARGA is excluded (whole-graph training).
"""

import pytest

from conftest import run_once
from repro.train.ddp import epoch_times


def test_fig9_strong_scaling(benchmark, mark, scaling):
    scaling_times = epoch_times(scaling)
    text = run_once(benchmark, lambda: mark.render_scaling(scaling_times))
    print("\n" + text)

    speedup = {
        key: {n: times[1] / times[n] for n in times}
        for key, times in scaling_times.items()
    }

    # considerable gains for the compute-dense workloads
    for key in ("DGCN", "STGCN", "GW"):
        assert speedup[key][4] > 1.8, key
        assert speedup[key][4] > speedup[key][2] * 0.95, key

    # TLSTM does not benefit from multi-GPU training
    assert speedup["TLSTM"][4] < 1.3

    # PSAGE degrades on both datasets
    assert speedup["PSAGE-MVL"][4] < 1.0
    assert speedup["PSAGE-NWP"][4] < 1.0

    # ARGA excluded by design
    assert "ARGA" not in scaling_times
    with pytest.raises(ValueError):
        from repro.train import run_scaling_point

        run_scaling_point("ARGA", 2)


def test_fig9_allreduce_accounting(benchmark):
    """Allreduce cost exists for N>1 and step counts stay fixed (strong
    scaling semantics)."""
    from repro.train import run_scaling_point

    def measure():
        one = run_scaling_point("KGNNL", 1, scale="test")
        four = run_scaling_point("KGNNL", 4, scale="test")
        return one, four

    one, four = run_once(benchmark, measure)
    assert one.allreduce_time_s == 0.0
    assert four.allreduce_time_s > 0.0
    assert abs(four.steps - one.steps) <= 1
    assert four.grad_bytes == one.grad_bytes
