"""Tracing: nesting, exception safety, JSONL export, histogram feed."""

import io
import json

import pytest

from repro.obs import MetricsRegistry, Tracer, get_tracer, trace_span


def test_nesting_depth_and_parent():
    tracer = Tracer(MetricsRegistry())
    with tracer.span("outer"):
        with tracer.span("middle"):
            with tracer.span("inner"):
                pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["outer"].depth == 0 and by_name["outer"].parent is None
    assert by_name["middle"].depth == 1 and by_name["middle"].parent == "outer"
    assert by_name["inner"].depth == 2 and by_name["inner"].parent == "middle"
    # Inner spans finish (and are recorded) first.
    assert [s.name for s in tracer.spans] == ["inner", "middle", "outer"]


def test_siblings_share_a_parent():
    tracer = Tracer(MetricsRegistry())
    with tracer.span("compress"):
        for i in range(3):
            with tracer.span("segment", segment=i):
                pass
    segments = [s for s in tracer.spans if s.name == "segment"]
    assert len(segments) == 3
    assert all(s.depth == 1 and s.parent == "compress" for s in segments)


def test_exception_recorded_and_propagated():
    tracer = Tracer(MetricsRegistry())
    with pytest.raises(KeyError):
        with tracer.span("outer"):
            with tracer.span("failing"):
                raise KeyError("boom")
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["failing"].error == "KeyError"
    assert by_name["outer"].error == "KeyError"   # propagated through
    # The stack unwound: a new span starts at depth 0 again.
    with tracer.span("after"):
        pass
    assert {s.name: s.depth for s in tracer.spans}["after"] == 0


def test_spans_feed_registry_histograms():
    registry = MetricsRegistry()
    tracer = Tracer(registry)
    for _ in range(5):
        with tracer.span("stage"):
            pass
    hist = registry.get("span.stage.wall_seconds")
    assert hist is not None and hist.count == 5
    assert hist.min >= 0.0


def test_timing_is_positive_and_labels_survive():
    tracer = Tracer(MetricsRegistry())
    with tracer.span("work", file_id="abc123") as record:
        sum(range(10_000))
    assert record.wall_seconds > 0.0
    assert record.cpu_seconds >= 0.0
    assert record.labels == {"file_id": "abc123"}


def test_jsonl_round_trips():
    tracer = Tracer(MetricsRegistry())
    with tracer.span("a", k=1):
        with tracer.span("b"):
            pass
    lines = tracer.to_jsonl().splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["name"] for r in records] == ["b", "a"]
    assert records[0]["parent"] == "a" and records[0]["depth"] == 1
    assert records[1]["labels"] == {"k": "1"}
    assert all("wall_ms" in r and "cpu_ms" in r for r in records)


def test_export_jsonl_to_file_object_and_path(tmp_path):
    tracer = Tracer(MetricsRegistry())
    with tracer.span("x"):
        pass
    buffer = io.StringIO()
    assert tracer.export_jsonl(buffer) == 1
    assert buffer.getvalue().endswith("\n")
    path = tmp_path / "trace.jsonl"
    assert tracer.export_jsonl(str(path)) == 1
    assert json.loads(path.read_text().strip())["name"] == "x"


def test_clear_resets_buffer_and_stack():
    tracer = Tracer(MetricsRegistry())
    with tracer.span("x"):
        pass
    tracer.clear()
    assert tracer.spans == []
    with tracer.span("fresh"):
        pass
    assert tracer.spans[0].depth == 0


def test_global_trace_span_uses_global_tracer():
    before = len(get_tracer().spans)
    with trace_span("global.test"):
        pass
    spans = get_tracer().spans[before:]
    assert [s.name for s in spans] == ["global.test"]


def test_full_buffer_keeps_the_newest_spans_in_order(monkeypatch):
    """Past the cap, each new span evicts the oldest one."""
    from repro.obs import tracing

    monkeypatch.setattr(tracing, "MAX_BUFFERED_SPANS", 3)
    tracer = Tracer(MetricsRegistry())
    for i in range(7):
        with tracer.span(f"s{i}"):
            pass
    assert [s.name for s in tracer.spans] == ["s4", "s5", "s6"]
    assert tracer.spans[1:] == tracer.spans[-2:]
