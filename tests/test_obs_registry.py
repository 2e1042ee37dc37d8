"""Tests for the labeled metrics registry and the persistent run
registry: Prometheus text exposition, digest stability, RunRecord
determinism (byte-identical modulo the injected timestamp), JSONL
append/load with torn-tail tolerance, history filtering and trend drift
detection."""

import json

import pytest

from repro.cluster import chic
from repro.experiments.common import ode_pipeline
from repro.mapping import consecutive
from repro.obs import (
    Counter,
    MetricsRegistry,
    RunRecord,
    RunRegistry,
    options_digest,
    program_digest,
    publish_result,
    record_from_result,
    topology_digest,
)
from repro.ode import MethodConfig, bruss2d


@pytest.fixture(scope="module")
def result():
    return ode_pipeline(
        bruss2d(40),
        MethodConfig("irk", K=4, m=3),
        chic().with_cores(16),
        consecutive(),
    )


# ----------------------------------------------------------------------
# labeled metrics
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_only_goes_up(self):
        c = Counter("runs_total")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_same_labels_return_same_child(self):
        reg = MetricsRegistry()
        a = reg.counter("runs_total", solver="irk")
        b = reg.counter("runs_total", solver="irk")
        c = reg.counter("runs_total", solver="pab")
        assert a is b
        assert a is not c

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        a = reg.gauge("g", x="1", y="2")
        b = reg.gauge("g", y="2", x="1")
        assert a is b

    def test_render_prometheus_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.counter("runs_total", help="total runs", solver="irk").inc(3)
        reg.gauge("backend_tasks_done", backend="pool").set(7)
        text = reg.render_prometheus()
        assert "# HELP runs_total total runs" in text
        assert "# TYPE runs_total counter" in text
        assert 'runs_total{solver="irk"} 3.0' in text
        assert "# TYPE backend_tasks_done gauge" in text
        assert 'backend_tasks_done{backend="pool"} 7.0' in text

    def test_render_prometheus_histogram_as_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("task_seconds", backend="serial")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        text = reg.render_prometheus()
        assert "# TYPE task_seconds summary" in text
        assert 'task_seconds{backend="serial",quantile="0.5"}' in text
        assert 'task_seconds_sum{backend="serial"} 6.0' in text
        assert 'task_seconds_count{backend="serial"} 3' in text

    def test_empty_histogram_renders_no_quantiles(self):
        reg = MetricsRegistry()
        reg.histogram("empty_seconds")
        text = reg.render_prometheus()
        assert "quantile" not in text
        assert "empty_seconds_count 0" in text

    def test_names_and_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.gauge("bad-name.metric", label='va"lue').set(1)
        text = reg.render_prometheus()
        assert "bad_name_metric" in text
        assert r'label="va\"lue"' in text

    def test_publish_result_exposes_run_metrics(self, result):
        reg = MetricsRegistry()
        publish_result(reg, result, solver="irk", cores="16")
        text = reg.render_prometheus()
        assert "repro_run_makespan{" in text
        assert 'solver="irk"' in text
        # obs counters become *_total counters with the run's value
        assert "_total{" in text


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
class TestDigests:
    def test_program_digest_is_stable_across_builds(self, result):
        again = ode_pipeline(
            bruss2d(40),
            MethodConfig("irk", K=4, m=3),
            chic().with_cores(16),
            consecutive(),
        )
        assert program_digest(result.graph) == program_digest(again.graph)

    def test_program_digest_separates_programs(self, result):
        other = ode_pipeline(
            bruss2d(40),
            MethodConfig("pab", K=8),
            chic().with_cores(16),
            consecutive(),
        )
        assert program_digest(result.graph) != program_digest(other.graph)

    def test_topology_digest_unwraps_platform(self):
        platform = chic().with_cores(16)
        assert topology_digest(platform) == topology_digest(platform.machine)
        assert topology_digest(platform) != topology_digest(
            chic().with_cores(64)
        )

    def test_options_digest_is_order_insensitive(self):
        assert options_digest({"a": 1, "b": 2}) == options_digest(
            {"b": 2, "a": 1}
        )


# ----------------------------------------------------------------------
# run records
# ----------------------------------------------------------------------
class TestRunRecord:
    def test_identical_runs_serialize_byte_identically(self, result):
        """Acceptance: two identical runs -> byte-identical RunRecords
        modulo the injected timestamp."""
        again = ode_pipeline(
            bruss2d(40),
            MethodConfig("irk", K=4, m=3),
            chic().with_cores(16),
            consecutive(),
        )
        spec = {"solver": "irk", "platform": "chic", "cores": 16}
        a = record_from_result(result, spec=spec, timestamp=123.0)
        b = record_from_result(again, spec=spec, timestamp=123.0)
        assert a.to_json() == b.to_json()
        # differing timestamps change the timestamp field and nothing else
        c = record_from_result(again, spec=spec, timestamp=456.0)
        da, dc = a.to_dict(), c.to_dict()
        assert da.pop("timestamp") != dc.pop("timestamp")
        assert da == dc

    def test_round_trip_via_from_dict(self, result):
        rec = record_from_result(
            result, spec={"solver": "irk"}, timestamp=1.0
        )
        clone = RunRecord.from_dict(json.loads(rec.to_json()))
        assert clone.to_json() == rec.to_json()
        assert clone.key == rec.key

    def test_wall_clock_options_do_not_leak_into_digest(self, result):
        a = record_from_result(
            result,
            spec={"solver": "irk", "recovery": {"seconds": 1.23}},
            timestamp=1.0,
        )
        b = record_from_result(
            result,
            spec={"solver": "irk", "recovery": {"seconds": 9.87}},
            timestamp=1.0,
        )
        assert a.options == b.options

    def test_backend_label(self, result):
        rec = record_from_result(
            result, spec={"backend": "pool:4"}, timestamp=1.0
        )
        assert rec.backend == "pool:4"
        explicit = record_from_result(
            result, spec={}, backend="serial", timestamp=1.0
        )
        assert explicit.backend == "serial"


# ----------------------------------------------------------------------
# the persistent registry
# ----------------------------------------------------------------------
def make_record(makespan=1.0, timestamp=0.0, program="p" * 64):
    return RunRecord(
        program=program,
        topology="t" * 64,
        options="o" * 64,
        solver="irk",
        makespan=makespan,
        metrics={"makespan": makespan},
        timestamp=timestamp,
    )


class TestRunRegistry:
    def test_append_and_load(self, tmp_path):
        reg = RunRegistry(tmp_path / "runs")
        path = reg.append(make_record(1.0, timestamp=1.0))
        reg.append(make_record(2.0, timestamp=2.0))
        assert path == reg.path
        records = reg.load()
        assert len(reg.load()) == 2
        assert [r["makespan"] for r in records] == [1.0, 2.0]

    def test_torn_final_line_is_tolerated(self, tmp_path):
        reg = RunRegistry(tmp_path / "runs")
        reg.append(make_record(1.0))
        with open(reg.path, "a") as fh:
            fh.write('{"schema": "repro.obs.runr')  # killed mid-append
        assert len(reg.load()) == 1
        # the next append truncates the torn tail instead of gluing onto it
        reg.append(make_record(2.0))
        assert [r["makespan"] for r in reg.load()] == [1.0, 2.0]
        assert b'{"schema": "repro.obs.runr' not in reg.path.read_bytes()
        assert reg.path.read_bytes().endswith(b"}\n")

    def test_missing_registry_loads_empty(self, tmp_path):
        assert RunRegistry(tmp_path / "nope").load() == []

    def test_history_filters_by_key_prefix(self, tmp_path):
        reg = RunRegistry(tmp_path / "runs")
        reg.append(make_record(1.0, program="a" * 64))
        reg.append(make_record(2.0, program="b" * 64))
        assert len(reg.history()) == 2
        assert [r["makespan"] for r in reg.history(key="aaaa")] == [1.0]
        assert reg.history(key="zzz") == []
        assert len(reg.history(last=1)) == 1

    def test_trend_detects_makespan_drift(self, tmp_path):
        reg = RunRegistry(tmp_path / "runs")
        for i, m in enumerate([1.0, 1.0, 1.1, 2.0]):
            reg.append(make_record(m, timestamp=float(i)))
        out = reg.trend("makespan", threshold=1.25)
        assert out["count"] == 4
        assert out["latest"] == pytest.approx(2.0)
        assert out["baseline"] == pytest.approx(1.0)
        assert out["ratio"] == pytest.approx(2.0)
        assert out["drifted"] is True

    def test_trend_within_threshold(self, tmp_path):
        reg = RunRegistry(tmp_path / "runs")
        for i, m in enumerate([1.0, 1.0, 1.1]):
            reg.append(make_record(m, timestamp=float(i)))
        out = reg.trend("makespan", threshold=1.25)
        assert out["drifted"] is False

    def test_trend_orients_higher_is_better_metrics(self, tmp_path):
        reg = RunRegistry(tmp_path / "runs")
        for i, rate in enumerate([0.9, 0.9, 0.45]):
            rec = make_record(1.0, timestamp=float(i))
            rec.metrics["cache_hit_rate"] = rate
            reg.append(rec)
        out = reg.trend("cache_hit_rate", threshold=1.25)
        # the hit rate halved: ratio is baseline/latest = 2.0, a drift
        assert out["ratio"] == pytest.approx(2.0)
        assert out["drifted"] is True

    def test_trend_needs_two_records(self, tmp_path):
        reg = RunRegistry(tmp_path / "runs")
        reg.append(make_record(1.0))
        out = reg.trend("makespan")
        assert out["count"] == 1
        assert "drifted" not in out
