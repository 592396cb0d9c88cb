"""MetricsRegistry: label keying, families, snapshot/render, reset."""

import json

import pytest

from repro.obs import Counter, Gauge, MetricsRegistry, StreamingHistogram, get_registry


@pytest.fixture
def registry():
    return MetricsRegistry()


def test_counter_identity_by_name_and_labels(registry):
    a = registry.counter("jobs", kind="encode")
    b = registry.counter("jobs", kind="encode")
    c = registry.counter("jobs", kind="decode")
    assert a is b and a is not c
    a.inc()
    a.inc(2)
    assert registry.counter("jobs", kind="encode").value == 3
    assert c.value == 0


def test_label_order_does_not_matter(registry):
    a = registry.counter("x", server="s1", kind="encode")
    b = registry.counter("x", kind="encode", server="s1")
    assert a is b


def test_counter_rejects_negative(registry):
    with pytest.raises(ValueError):
        registry.counter("c").inc(-1)


def test_gauge_moves_both_ways(registry):
    g = registry.gauge("depth", server="s1")
    g.set(5)
    g.inc()
    g.dec(2)
    assert g.value == 4.0


def test_kind_conflict_raises(registry):
    registry.counter("metric.a")
    with pytest.raises(TypeError):
        registry.gauge("metric.a")
    with pytest.raises(TypeError):
        registry.histogram("metric.a")
    registry.histogram("metric.h")
    with pytest.raises(TypeError):
        registry.counter("metric.h")


def test_same_name_different_labels_is_distinct(registry):
    # A family shares a name; instruments are per label set.
    registry.counter("exit_codes", code="Success").inc(9)
    registry.counter("exit_codes", code="Progressive").inc(1)
    series = {labels["code"]: c.value for labels, c in registry.series("exit_codes")}
    assert series == {"Success": 9, "Progressive": 1}


def test_get_returns_none_for_missing(registry):
    assert registry.get("nope") is None
    registry.counter("yep", k="v")
    assert registry.get("yep") is None          # labels must match exactly
    assert isinstance(registry.get("yep", k="v"), Counter)


def test_names_sorted_and_deduplicated(registry):
    registry.counter("b.metric", code="x")
    registry.counter("b.metric", code="y")
    registry.counter("a.metric")
    assert registry.names() == ["a.metric", "b.metric"]


def test_snapshot_shape(registry):
    registry.counter("n.jobs", kind="e").inc(2)
    registry.gauge("n.depth").set(7)
    registry.histogram("n.lat").observe(0.5)
    snap = registry.snapshot()
    assert snap["n.jobs"] == [{"labels": {"kind": "e"}, "kind": "counter", "value": 2.0}]
    assert snap["n.depth"][0]["value"] == 7.0
    hist_entry = snap["n.lat"][0]
    assert hist_entry["kind"] == "histogram"
    assert hist_entry["summary"]["count"] == 1


def test_render_lines(registry):
    registry.counter("jobs", kind="encode").inc(3)
    registry.histogram("lat").observe(1.0)
    text = registry.render()
    assert "jobs{kind=encode} counter 3" in text
    assert text.splitlines()[-1].startswith("lat histogram count=1 ")


def test_reset_empties(registry):
    registry.counter("a").inc()
    registry.histogram("b").observe(1.0)
    assert len(registry) == 2
    registry.reset()
    assert len(registry) == 0 and registry.names() == []


def test_histogram_types_and_defaults(registry):
    h = registry.histogram("h", relative_accuracy=0.02)
    assert isinstance(h, StreamingHistogram)
    assert h.relative_accuracy == 0.02
    assert isinstance(registry.gauge("g"), Gauge)


def test_global_registry_is_a_singleton():
    assert get_registry() is get_registry()
    get_registry().counter("test.global.counter").inc()
    assert get_registry().get("test.global.counter").value == 1
    # The autouse conftest fixture resets it between tests.


def test_export_replays_through_json_into_another_registry(registry):
    """What a codec worker sends back with a job: counters add, gauges
    take the value, histograms merge bucket for bucket."""
    registry.counter("jobs", kind="decode").inc(3)
    registry.gauge("level").set(7)
    for value in (0.001, 0.002, 0.5):
        registry.histogram("seconds").observe(value)
    target = MetricsRegistry()
    target.counter("jobs", kind="decode").inc(1)
    target.histogram("seconds").observe(0.25)
    target.replay(json.loads(json.dumps(registry.export())))
    assert target.counter("jobs", kind="decode").value == 4
    assert target.gauge("level").value == 7
    merged = target.histogram("seconds")
    assert merged.count == 4 and merged.max == 0.5 and merged.min == 0.001
    expected = StreamingHistogram()
    for value in (0.001, 0.002, 0.5, 0.25):
        expected.observe(value)
    assert merged.percentiles() == expected.percentiles()
