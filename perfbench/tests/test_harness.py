"""Tests of the benchmark harness itself: span arithmetic, the percentile
sample rule, and wrapper install/restore."""

import math
import types

import pytest

from tracing import (
    Layer,
    Span,
    Tracer,
    chrome_trace,
    min_samples_for,
    percentile,
    summarize,
)


def _spans():
    # root 0..10; raster 1..7 holding preprocess 1..2 and bin 3..4;
    # loss 8..9; 0..1, 7..8 and 9..10 are covered by no layer.
    return [
        Span("batch", 0.0, 10.0, parent=-1, root=0, args={"batch": 3}),
        Span("raster", 1.0, 7.0, parent=0, root=0),
        Span("preprocess", 1.0, 2.0, parent=1, root=0),
        Span("bin", 3.0, 4.0, parent=1, root=0),
        Span("loss", 8.0, 9.0, parent=0, root=0),
    ]


def test_self_time_subtracts_child_spans():
    summary = summarize(_spans())
    assert summary["raster"]["busy_s"] == 6.0
    assert summary["raster"]["self_s"] == 4.0
    assert summary["preprocess"]["self_s"] == 1.0
    assert summary["raster"]["share"] == pytest.approx(0.4)
    assert summary["trace"]["wall_s"] == 10.0
    assert summary["trace"]["unattributed_share"] == pytest.approx(0.3)


def test_shares_and_unattributed_sum_to_one():
    summary = summarize(_spans())
    shares = sum(v["share"] for k, v in summary.items() if k != "trace")
    assert shares + summary["trace"]["unattributed_share"] == pytest.approx(1.0)


def test_nested_span_of_the_same_layer_is_busy_once():
    spans = [
        Span("batch", 0.0, 4.0, parent=-1, root=0),
        Span("kernels", 0.0, 3.0, parent=0, root=0),
        Span("kernels", 1.0, 2.0, parent=1, root=0),
    ]
    stats = summarize(spans)["kernels"]
    assert stats["calls"] == 2
    assert stats["busy_s"] == 3.0
    assert stats["self_s"] == 3.0


def test_chrome_trace_carries_parent_and_root_ids():
    events = [e for e in chrome_trace(_spans())["traceEvents"] if e["ph"] == "X"]
    bin_event = events[3]
    assert bin_event["ph"] == "X"
    assert bin_event["args"] == {"batch": 3, "span": 3, "parent": 1}
    assert bin_event["ts"] == 3e6 and bin_event["dur"] == 1e6


def test_percentile_interpolates():
    values = list(range(1, 101))
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile(values, 99) == pytest.approx(99.01)
    assert percentile([7.0], 99) == 7.0
    assert math.isnan(percentile([], 50))


def test_sample_rule_needs_ten_beyond_the_percentile():
    assert min_samples_for(99) == 1000
    assert min_samples_for(95) == 200
    assert min_samples_for(50) == 20
    assert min_samples_for(99.9) == 10000
    for q in (90, 95, 97.5, 99):
        n = min_samples_for(q)
        assert n * (100 - q) / 100 >= 10 - 1e-9
        assert (n - 1) * (100 - q) / 100 < 10


def _fixture():
    module = types.ModuleType("fake_layer_module")
    module.double = lambda x: 2 * x

    class Store:
        def fetch(self, rows):
            return rows[:1]

    layers = [
        Layer("double", module, "double",
              count=lambda a, k, r, s: {"double.out": r}),
        Layer("fetch", Store, "fetch",
              count=lambda a, k, r, s: {"fetch.rows": len(a[1])}),
    ]
    return module, Store, layers


def test_wrappers_record_only_inside_roots_and_restore():
    module, Store, layers = _fixture()
    original_double, original_fetch = module.double, vars(Store)["fetch"]
    tracer = Tracer(layers)
    tracer.install()
    try:
        assert module.double(1) == 2  # outside any root: not recorded
        with tracer.root("batch", batch=0):
            assert module.double(5) == 10
            assert Store().fetch([4, 5, 6]) == [4]
        assert not tracer.restored()
    finally:
        tracer.restore()
    assert module.double is original_double
    assert vars(Store)["fetch"] is original_fetch
    assert tracer.restored()
    assert [s.name for s in tracer.spans] == ["batch", "double", "fetch"]
    assert tracer.counters == {"double.out": 10, "fetch.rows": 3}
    tracer.restore()  # idempotent


def test_wrapper_closes_span_when_the_call_raises():
    module, _, layers = _fixture()
    module.double = lambda x: 1 / x
    tracer = Tracer(layers[:1])
    tracer.install()
    try:
        with pytest.raises(ZeroDivisionError):
            with tracer.root("batch"):
                module.double(0)
    finally:
        tracer.restore()
    assert all(not math.isnan(s.end) for s in tracer.spans)
    assert tracer.counters == {}


def test_double_install_is_refused():
    _, _, layers = _fixture()
    tracer = Tracer(layers)
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.restore()


def test_benchmark_layers_install_and_restore():
    import workloads

    originals = [vars(layer.owner)[layer.attr] for layer in workloads.LAYERS]
    tracer = Tracer(workloads.LAYERS)
    tracer.install()
    tracer.restore()
    assert tracer.restored()
    assert originals == [vars(layer.owner)[layer.attr] for layer in workloads.LAYERS]
