"""Property tests for the insight engine's attribution tree.

``build_tree`` makes two structural promises that hold for *any* input, not
just the committed workloads: every parent's ``duration_us`` is exactly the
sum of its children's, and every classified site carries exactly one bound
class from ``BOUND_CLASSES``.  Randomized launch tables and synthetic
timelines exercise both, plus conservation (nothing attributed is invented
or dropped) and determinism of the reduction itself.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.profiling import insights  # noqa: E402
from repro.profiling.trace import Span, Timeline  # noqa: E402
from tests.launch_logs import launch_tables  # noqa: E402

settings.register_profile("insights", max_examples=60, deadline=None)
settings.load_profile("insights")

@st.composite
def timelines(draw):
    """Epoch and stream spans of device 0, and a launch table for it."""
    spans = []
    t = 0.0
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        dur = draw(st.floats(min_value=1e-4, max_value=0.01))
        spans.append(Span.make(f"epoch {i}", "phase", 0, "epoch", t, t + dur))
        t += dur
    for j in range(draw(st.integers(min_value=0, max_value=6))):
        tid = draw(st.sampled_from(tuple(insights._STREAM_PHASE)))
        ts = draw(st.floats(min_value=0.0, max_value=t))
        dur = draw(st.floats(min_value=0.0, max_value=1e-3))
        spans.append(Span.make(f"{tid}.{j % 2}", "transfer", 0, tid,
                               ts, ts + dur,
                               {"nbytes": draw(st.integers(0, 1 << 20))}))
    # a stream the attributor must ignore (counter samples, markers, ...)
    spans.append(Span.make("HBM", "counter", 0, "memory", 0.0, 0.0))
    return Timeline(spans, {0: draw(launch_tables(max_events=12))})


def _leaf_sites(node):
    for child in node.get("children", []):
        if child.get("kind") == "site":
            yield child
        else:
            yield from _leaf_sites(child)


class TestTreeInvariants:
    @given(tl=timelines())
    def test_parent_duration_is_sum_of_children(self, tl):
        tree, _ = insights.build_tree(tl)

        def walk(node):
            if node.get("kind") == "site":
                return node["duration_us"]
            total = sum(walk(c) for c in node["children"])
            assert node["duration_us"] == pytest.approx(total, rel=1e-9,
                                                        abs=1e-6)
            return node["duration_us"]

        walk(tree)

    @given(tl=timelines())
    def test_every_site_has_exactly_one_bound_class(self, tl):
        tree, flat = insights.build_tree(tl)
        for site in list(_leaf_sites(tree)) + flat:
            assert site["bound_class"] in insights.BOUND_CLASSES
            if "launches" in site:
                # kernel verdicts come from the cycle-limiter argmax
                assert (insights._COMPONENT_CLASS[site["bound"]]
                        == site["bound_class"])
            else:
                # non-kernel streams are transfer/stall time by definition
                assert site["bound_class"] == "transfer_or_stall"

    @given(tl=timelines())
    def test_attribution_conserves_total_time(self, tl):
        tree, flat = insights.build_tree(tl)
        table = tl.kernels.get(0)
        expected = (sum(table.duration_s.tolist()) if table else 0.0) * 1e6
        expected += sum(s.dur_us for s in tl.spans
                        if s.tid in insights._STREAM_PHASE)
        assert tree["duration_us"] == pytest.approx(expected, rel=1e-9,
                                                    abs=1e-6)
        flat_total = sum(s["duration_us"] for s in flat)
        assert flat_total == pytest.approx(expected, rel=1e-9, abs=1e-6)

    @given(tl=timelines())
    def test_bound_summary_partitions_attributed_time(self, tl):
        _, flat = insights.build_tree(tl)
        summ = insights._summaries(flat)
        total = sum(s["duration_us"] for s in flat)
        by_class = sum(v["duration_us"]
                       for v in summ["bound_summary"].values())
        assert by_class == pytest.approx(total, rel=1e-9, abs=1e-6)
        if total:
            shares = sum(v["share"] for v in summ["bound_summary"].values())
            assert shares == pytest.approx(1.0, abs=1e-6)

    @given(tl=timelines())
    def test_fold_is_deterministic(self, tl):
        first = insights.build_tree(tl)
        second = insights.build_tree(tl)
        assert (json.dumps(first, sort_keys=True)
                == json.dumps(second, sort_keys=True))
