"""Tests for the structured-event instrumentation layer.

:func:`export` is a run's instrumentation as one JSON-able dict; the
pinned digests of ``tests/test_single_store.py`` hash its metric
sections.  :func:`gauges`, :func:`histograms` and :func:`histogram` read
the run's registry by flat name, as exported.
"""

import json

import pytest

from repro.obs import Histogram, Instrumentation, SpanRecord
from repro.obs.metrics import child_key, flat_view


def span_dict(rec: SpanRecord) -> dict:
    """One span as a JSON-serialisable dict."""
    out = {"name": rec.name, "id": rec.sid, "start": rec.start, "duration": rec.duration}
    if rec.parent_id is not None:
        out["parent_id"] = rec.parent_id
    if rec.meta:
        out["meta"] = dict(rec.meta)
    return out


def gauges(obs: Instrumentation) -> dict:
    """Every gauge of ``obs`` by flat name (``name{k=v,...}`` if labelled)."""
    return flat_view(obs.registry.gauges)


def histograms(obs: Instrumentation) -> dict:
    """Every histogram of ``obs`` by flat name."""
    return flat_view(obs.registry.histograms)


def histogram(obs: Instrumentation, name: str, **labels) -> Histogram:
    """The histogram ``name`` (an empty one when never observed)."""
    return obs.registry.histograms.get(child_key(name, labels), Histogram(name))


def export(obs: Instrumentation) -> dict:
    """Spans, counters, records and the non-empty gauge and histogram
    sections of ``obs``."""
    out = {
        "spans": [span_dict(s) for s in obs.spans],
        "counters": obs.counters,
        "records": [dict(r) for r in obs.records],
    }
    if histograms(obs):
        out["histograms"] = {k: h.to_dict() for k, h in histograms(obs).items()}
    if gauges(obs):
        out["gauges"] = {k: {"value": g.value} for k, g in gauges(obs).items()}
    return out


class FakeClock:
    """Deterministic clock advancing 1.0 s per reading."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


@pytest.fixture
def obs():
    return Instrumentation(clock=FakeClock())


class TestSpans:
    def test_span_records_duration(self, obs):
        with obs.span("work"):
            pass
        assert sum(sp.duration for sp in obs.spans if sp.name == "work") == pytest.approx(1.0)

    def test_nested_spans_track_parent(self, obs):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        spans = {s.name: s for s in obs.spans}
        assert spans["outer"].parent_id is None
        assert spans["inner"].parent_id == spans["outer"].sid

    def test_span_meta_captured(self, obs):
        with obs.span("schedule", scheduler="layered", g=4):
            pass
        (s,) = [s for s in obs.spans if s.name == "schedule"]
        assert s.meta == {"scheduler": "layered", "g": 4}

    def test_span_seconds_sums_repeats(self, obs):
        for _ in range(3):
            with obs.span("pass"):
                pass
        assert sum(sp.duration for sp in obs.spans if sp.name == "pass") == pytest.approx(3.0)

    def test_span_survives_exception(self, obs):
        with pytest.raises(RuntimeError):
            with obs.span("doomed"):
                raise RuntimeError("boom")
        assert sum(sp.duration for sp in obs.spans if sp.name == "doomed") == pytest.approx(1.0)
        # the stack was popped: a new span is top-level again
        with obs.span("after"):
            pass
        (after,) = [s for s in obs.spans if s.name == "after"]
        assert after.parent_id is None

    def test_span_names_in_order(self, obs):
        with obs.span("a"):
            pass
        with obs.span("b"):
            pass
        assert [sp.name for sp in obs.spans] == ["a", "b"]


class TestCountersAndRecords:
    def test_count_accumulates(self, obs):
        obs.count("probes")
        obs.count("probes", 4)
        assert obs.counter("probes") == 5

    def test_counter_default(self, obs):
        assert obs.counter("missing") == 0
        assert obs.counter("missing", default=7) == 7

    def test_set_counter_overwrites(self, obs):
        obs.count("x", 3)
        obs.set_counter("x", 1.5)
        assert obs.counter("x") == 1.5

    def test_records_filtered_by_kind(self, obs):
        obs.record("layer", index=0, groups=2)
        obs.record("layer", index=1, groups=4)
        obs.record("simulate", makespan=1.0)
        layers = obs.records_of("layer")
        assert [r["index"] for r in layers] == [0, 1]
        assert obs.records_of("nothing") == []


class TestExport:
    def test_to_dict_shape(self, obs):
        with obs.span("work", tag="x"):
            obs.count("n")
        obs.record("done", ok=True)
        d = export(obs)
        assert d["counters"] == {"n": 1}
        assert d["records"][0]["kind"] == "done"
        assert d["spans"][0]["name"] == "work"

    def test_to_json_round_trips(self, obs):
        with obs.span("work"):
            obs.count("n", 2)
        parsed = json.loads(json.dumps(export(obs), default=str))
        assert parsed["counters"]["n"] == 2
        assert parsed["spans"][0]["duration"] == pytest.approx(1.0)

    def test_span_record_to_dict(self):
        rec = SpanRecord(name="s", start=1.0, duration=2.0, meta={"k": 1})
        d = span_dict(rec)
        assert d["name"] == "s" and "parent_id" not in d and d["meta"] == {"k": 1}

    def test_span_record_to_dict_emits_parent_id(self):
        rec = SpanRecord(
            name="s", start=1.0, duration=2.0, sid=7, parent_id=3
        )
        d = span_dict(rec)
        assert d["id"] == 7
        assert d["parent_id"] == 3


class TestSpanIds:
    def test_span_ids_unique_across_same_name(self, obs):
        with obs.span("pipeline"):
            for i in range(3):
                with obs.span("layer", index=i):
                    pass
        layers = [s for s in obs.spans if s.name == "layer"]
        assert len({s.sid for s in layers}) == 3

    def test_parent_id_resolves_ambiguous_names(self, obs):
        """Two spans named alike must still be distinguishable parents."""
        with obs.span("layer") as outer1:
            with obs.span("probe"):
                pass
        with obs.span("layer") as outer2:
            with obs.span("probe"):
                pass
        probes = [s for s in obs.spans if s.name == "probe"]
        assert probes[0].parent_id == outer1.sid
        assert probes[1].parent_id == outer2.sid
        assert outer1.sid != outer2.sid

    def test_top_level_span_has_no_parent_id(self, obs):
        with obs.span("root"):
            pass
        (root,) = obs.spans
        assert root.parent_id is None


class TestHistogramsAndGauges:
    def test_observe_feeds_named_histogram(self, obs):
        obs.observe("task_seconds", 1.0)
        obs.observe("task_seconds", 3.0)
        h = histogram(obs, "task_seconds")
        assert h.count == 2
        assert h.p50 == pytest.approx(2.0)

    def test_missing_histogram_is_empty(self, obs):
        assert histogram(obs, "nope").count == 0

    def test_gauge_set_and_read(self, obs):
        obs.gauge("utilization", 0.9)
        assert obs.gauge("utilization").value == 0.9

    def test_to_dict_includes_histograms_and_gauges(self, obs):
        obs.observe("h", 1.0)
        obs.gauge("g", 2.0)
        d = export(obs)
        assert d["histograms"]["h"]["count"] == 1
        assert d["gauges"]["g"]["value"] == 2.0

    def test_to_dict_omits_empty_sections(self, obs):
        d = export(obs)
        assert "histograms" not in d
        assert "gauges" not in d
