"""Tests for metrics primitives and derived schedule analytics."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import generic_cluster
from repro.core import CostModel, MTask, TaskGraph
from repro.obs import Gauge, Histogram, analyze
from repro.obs.metrics import HISTOGRAM_CAP
from repro.obs.gantt import render_layers, render_trace
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


def unbounded_to_dict(values):
    """``Histogram.to_dict`` as it was while every sample was kept."""
    if not values:
        return {"count": 0}
    xs = sorted(values)

    def percentile(p):
        if len(xs) == 1:
            return xs[0]
        rank = p / 100.0 * (len(xs) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] * (1.0 - (rank - lo)) + xs[hi] * (rank - lo)

    return {
        "count": len(values),
        "total": sum(values),
        "mean": sum(values) / len(values),
        "min": min(values),
        "max": max(values),
        "p50": percentile(50),
        "p90": percentile(90),
        "p99": percentile(99),
    }


class TestHistogramBound:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=200), st.data())
    @settings(max_examples=200, deadline=None)
    def test_below_the_cap_nothing_changes(self, values, data):
        h = Histogram()
        reads = data.draw(st.sets(st.integers(0, len(values))))
        for i, v in enumerate(values):
            if i in reads:  # reading in between must not disturb anything
                h.to_dict()
            h.observe(v)
        assert h.to_dict() == unbounded_to_dict(values)
        assert h.values == values

    def test_a_full_run_below_the_cap_is_exact(self):
        values = [((i * 7919) % 1013) / 7.0 for i in range(HISTOGRAM_CAP - 1)]
        h = Histogram(values=values)
        assert h.values == values
        assert h.to_dict() == unbounded_to_dict(values)

    def test_a_million_samples_hold_at_most_cap_floats(self):
        h = Histogram()
        n = 10**6
        for i in range(n):
            h.observe((i * 7919) % 1000003)
            if i % 99991 == 0:
                assert len(h.values) <= HISTOGRAM_CAP
        assert len(h.values) <= HISTOGRAM_CAP
        # 7919 is coprime to the prime modulus: the samples are a
        # permutation prefix, so the exact statistics are known
        assert h.count == n
        assert h.total == float(sum((i * 7919) % 1000003 for i in range(n)))
        assert h.min == 0.0 and h.max == 1000002.0
        # the sample is a subsequence of the arrivals, newest included
        arrivals = iter(float((i * 7919) % 1000003) for i in range(n))
        assert all(v in arrivals for v in h.values)
        assert h.values[-1] == float(((n - 1) * 7919) % 1000003)
        assert h.p50 == pytest.approx(500001, rel=0.05)

    def test_decimation_is_deterministic(self):
        a, b = Histogram(), Histogram()
        for i in range(3 * HISTOGRAM_CAP):
            a.observe(i % 977)
            b.observe(i % 977)
            if i % 1000 == 0:
                a.to_dict()  # reading changes nothing
        assert a.values == b.values and a.to_dict() == b.to_dict()


class TestGauge:
    def test_set_and_export(self):
        g = Gauge("util")
        g.set(0.75)
        assert g.value == 0.75


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

