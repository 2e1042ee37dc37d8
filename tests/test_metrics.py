"""Tests for metrics primitives and derived schedule analytics."""

import math

import pytest

from repro.cluster import generic_cluster
from repro.core import CostModel, MTask, TaskGraph
from repro.obs import Gauge, Histogram, analyze
from repro.obs.gantt import render_analysis_bars, render_layers, render_trace
from repro.pipeline import SchedulingPipeline
from repro.scheduling import LayerBasedScheduler


class TestHistogram:
    def test_percentiles_interpolate(self):
        h = Histogram("t", values=range(101))  # 0..100
        assert h.percentile(0) == 0
        assert h.p50 == pytest.approx(50.0)
        assert h.p90 == pytest.approx(90.0)
        assert h.p99 == pytest.approx(99.0)
        assert h.percentile(100) == 100

    def test_interpolation_between_points(self):
        h = Histogram(values=[0.0, 1.0])
        assert h.p50 == pytest.approx(0.5)
        assert h.p90 == pytest.approx(0.9)

    def test_observe_invalidates_cache(self):
        h = Histogram()
        h.observe(1.0)
        assert h.p50 == 1.0
        h.observe(3.0)
        assert h.p50 == pytest.approx(2.0)

    def test_empty_histogram(self):
        h = Histogram()
        assert h.count == 0
        assert h.p99 == 0.0
        assert h.mean == 0.0
        # min/max of nothing is NaN, not 0.0 -- a real observation of 0.0
        # must stay distinguishable from "never observed"
        assert math.isnan(h.min) and math.isnan(h.max)
        assert h.to_dict() == {"count": 0}

    def test_summary_stats(self):
        h = Histogram(values=[2.0, 4.0, 6.0])
        assert h.mean == pytest.approx(4.0)
        assert h.min == 2.0 and h.max == 6.0 and h.total == 12.0
        d = h.to_dict()
        assert d["count"] == 3 and d["p50"] == pytest.approx(4.0)

    def test_rejects_bad_percentile(self):
        with pytest.raises(ValueError):
            Histogram(values=[1.0]).percentile(101)


class TestGauge:
    def test_set_and_export(self):
        g = Gauge("util")
        g.set(0.75)
        assert g.value == 0.75
        assert g.to_dict() == {"value": 0.75}


@pytest.fixture(scope="module")
def run():
    plat = generic_cluster(nodes=2, procs_per_node=2, cores_per_proc=2)
    cost = CostModel(plat)
    g = TaskGraph()
    a = g.add_task(MTask("a", work=4e7))
    b = g.add_task(MTask("b", work=1e7))
    c = g.add_task(MTask("c", work=2e7))
    g.add_dependency(a, c)
    g.add_dependency(b, c)
    return SchedulingPipeline(LayerBasedScheduler(cost)).run(g)


class TestScheduleAnalysis:
    def test_fractions_are_consistent(self, run):
        a = run.analysis()
        assert 0.0 < a.busy_fraction <= 1.0 + 1e-9
        assert a.busy_fraction + a.idle_fraction == pytest.approx(1.0)
        assert a.makespan == pytest.approx(run.trace.makespan)

    def test_per_core_accounting(self, run):
        a = run.analysis()
        assert len(a.cores) == run.trace.machine.total_cores
        for core in a.cores:
            assert core.busy + core.idle == pytest.approx(a.makespan)
            assert 0.0 <= core.busy_fraction <= 1.0 + 1e-9

    def test_critical_path_share(self, run):
        a = run.analysis()
        # a -> c is the critical chain; its share must be positive and
        # cannot exceed the makespan
        assert 0.0 < a.critical_path_share <= 1.0 + 1e-9
        assert a.critical_path <= a.makespan + 1e-12

    def test_layer_imbalance_at_least_one(self, run):
        a = run.analysis()
        assert a.layers, "layered schedule expected"
        for layer in a.layers:
            assert layer.imbalance >= 1.0 - 1e-9
        assert a.max_layer_imbalance >= a.mean_layer_imbalance - 1e-9

    def test_group_size_distribution_counts_layers(self, run):
        a = run.analysis()
        layered = run.scheduling.layered
        expected = sum(len(layer.group_sizes) for layer in layered.layers)
        assert sum(a.group_size_distribution.values()) == expected

    def test_task_histogram_covers_all_tasks(self, run):
        a = run.analysis()
        assert a.task_seconds.count == len(run.trace)

    def test_metrics_and_dict_roundtrip(self, run):
        a = run.analysis()
        m = a.metrics()
        assert m["makespan"] == pytest.approx(a.makespan)
        d = a.to_dict()
        assert d["total_cores"] == a.total_cores
        assert len(d["cores"]) == len(a.cores)

    def test_report_mentions_key_lines(self, run):
        text = run.analysis().report(per_core=True)
        assert "busy fraction" in text
        assert "critical-path share" in text
        assert "core" in text

    def test_analyze_requires_trace(self, run):
        class NoTrace:
            trace = None

        with pytest.raises(ValueError):
            analyze(NoTrace())


class TestExecutionTraceHelpers:
    def test_per_core_busy_matches_utilization(self, run):
        trace = run.trace
        busy = trace.per_core_busy()
        area = trace.makespan * trace.machine.total_cores
        assert sum(busy.values()) / area == pytest.approx(trace.utilization())

    def test_idle_time_per_core_and_total(self, run):
        trace = run.trace
        total = sum(trace.idle_time(c) for c in trace.machine.cores())
        assert total == pytest.approx(trace.idle_time())

    def test_index_follows_add(self, run):
        from repro.sim.trace import ExecutionTrace

        trace = run.trace
        fresh = ExecutionTrace(trace.machine)
        for entry in trace.entries:
            fresh.add(entry)
        first = trace.entries[0].task
        assert first in fresh
        assert fresh[first] is trace.entries[0]

    def test_add_rejects_duplicates(self, run):
        from repro.sim.trace import ExecutionTrace

        trace = run.trace
        fresh = ExecutionTrace(trace.machine)
        fresh.add(trace.entries[0])
        with pytest.raises(ValueError):
            fresh.add(trace.entries[0])


class TestGanttRendering:
    def test_render_trace_has_rows_and_legend(self, run):
        text = render_trace(run.trace, width=40)
        assert "core" in text
        assert "legend" in text
        assert "[ms]" in text

    def test_render_trace_by_node(self, run):
        text = render_trace(run.trace, width=40, by="node", legend=False)
        assert "node" in text
        assert "legend" not in text

    def test_render_trace_rejects_bad_axis(self, run):
        with pytest.raises(ValueError):
            render_trace(run.trace, by="rack")

    def test_render_layers(self, run):
        cost = CostModel(generic_cluster(nodes=2, procs_per_node=2, cores_per_proc=2))
        text = render_layers(run.scheduling.layered, cost)
        assert "layer 0" in text
        assert "|" in text

    def test_render_analysis_bars(self, run):
        text = render_analysis_bars(run.analysis())
        assert text.count("core") >= run.trace.machine.total_cores
