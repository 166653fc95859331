"""Arithmetic of the benchmark itself: self time, draw use, time-to-precision, failure share.

    python3 -m pytest perfbench
"""

import sys
import types
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import fail_share  # noqa: E402
from tracing import Span, Tracer, covered, layer_metrics, s_to_se01, self_times  # noqa: E402


def test_covered_merges_overlapping_intervals():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.8)]) == pytest.approx(4.0)
    assert covered([]) == 0.0


def test_self_time_subtracts_only_the_time_children_cover():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),     # overlaps a: [1, 6] is covered once
        Span("leaf", 2.0, 3.0, 1),  # grandchild of root, already inside a
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_transparent_span_passes_its_children_through():
    spans = [
        Span("est", 0.0, 10.0, -1),
        Span("fan-out", 0.5, 9.5, 0),
        Span("draws", 2.0, 5.0, 1),
        Span("ppf", 6.0, 7.0, 1),
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)
    assert self_times(spans, transparent={"fan-out"})[0] == pytest.approx(6.0)


def test_draw_use_and_aux_draws_per_contribution():
    counts = Counter({"draws": 800, "draws.aux": 400, "draws.consumed": 100,
                      "spa.contrib": 20, "spa.reps": 40})
    m = layer_metrics([], counts, iterations=2)
    assert m["sim.draws_generated"] == 400
    assert m["sim.draw_use"] == pytest.approx(0.125)
    assert m["estimators.spa.contrib_share"] == pytest.approx(0.5)
    assert m["estimators.spa.aux_draws_per_contrib"] == pytest.approx(20.0)
    assert layer_metrics([], Counter(), iterations=1)["sim.draw_use"] == 0.0


def test_s_to_se01_scales_time_by_squared_standard_error():
    assert s_to_se01(2.0, 0.02) == pytest.approx(8.0)
    assert s_to_se01(4.0, 0.005) == pytest.approx(1.0)


def test_fail_share():
    assert fail_share(2, 1) == 0.5
    assert fail_share(6, 0) == 0.0


def test_patched_wrapper_records_spans_and_restores_the_original():
    mod = types.SimpleNamespace(f=lambda x, scale=2: x * scale)
    original = mod.f
    tracer = Tracer()
    tracer.wrap(mod, "f", "layer.f", lambda t, args, out: t.add("items", args["x"]))
    with tracer.patched():
        with tracer.span("outer"):
            assert mod.f(3) == 6
    assert mod.f is original
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("layer.f", 0)]
    assert tracer.counts["items"] == 3
    assert mod.f(3) == 6 and len(tracer.spans) == 2
