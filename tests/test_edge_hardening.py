"""Edge-case hardening tests across the scheduling core and exporters.

Each class pins one satellite fix of the shoot-out PR: degenerate-layer
handling in the g-search internals, generator moldability bounds vs the
target topology, NaN/zero-duration rendering in the Gantt and Perfetto
exporters, and the ``repro.obs trend`` exit-code contract on degenerate
registries.
"""

import json
import math

import pytest

from repro.cluster import generic_cluster
from repro.core import CostModel, MTask, TaskGraph
from repro.graphs import fit_to_cores, layered_graph, random_dag, synthesize
from repro.obs.cli import main as obs_main
from repro.obs.gantt import render_trace
from repro.obs.perfetto import execution_trace_events
from repro.obs.registry import RunRecord, RunRegistry
from repro.scheduling import LayerBasedScheduler
from repro.scheduling.allocation import lpt_assign_indices
from repro.sim.trace import ExecutionTrace, TraceEntry

from tests.test_perfetto import validate_trace_events
from tests.test_schedule_scale import adjust_groups


@pytest.fixture(scope="module")
def plat():
    return generic_cluster(nodes=4, procs_per_node=2, cores_per_proc=2)


@pytest.fixture(scope="module")
def cost(plat):
    return CostModel(plat)


class TestDegenerateLayers:
    """schedule_layer / lpt_assign_indices / adjust_group_sizes on
    empty, zero-work and width-clamped layers."""

    def test_empty_layer_schedules_as_idle_machine(self, cost):
        layer, tmin = LayerBasedScheduler(cost).schedule_layer([])
        assert layer.groups == [[]]
        assert layer.group_sizes == [cost.platform.total_cores]
        assert tmin == 0.0

    def test_all_zero_work_layer_schedules(self, cost):
        tasks = [MTask(f"z{i}", work=0.0) for i in range(4)]
        layer, tmin = LayerBasedScheduler(cost).schedule_layer(tasks)
        assert sorted(t.name for g in layer.groups for t in g) == sorted(
            t.name for t in tasks
        )
        assert tmin == 0.0

    def test_width_clamped_layer_schedules(self, cost):
        tasks = [MTask(f"s{i}", work=1e8, max_procs=1) for i in range(6)]
        layer, tmin = LayerBasedScheduler(cost).schedule_layer(tasks)
        assert all(s >= 1 for s in layer.group_sizes)
        assert tmin > 0.0

    def test_lpt_rejects_nonpositive_group_count(self):
        with pytest.raises(ValueError, match="g must be positive"):
            lpt_assign_indices([0, 1], [2.0, 1.0], 0)
        with pytest.raises(ValueError, match="g must be positive"):
            lpt_assign_indices([0], [1.0], -3)

    def test_adjust_group_sizes_zero_work_splits_equally(self):
        groups = [[MTask(f"a{i}", work=0.0)] for i in range(3)]
        sizes = adjust_groups(groups, lambda t: 0.0, 8)
        assert sum(sizes) == 8
        assert all(s >= 1 for s in sizes)

    def test_adjust_group_sizes_nan_work_degrades_to_equal_split(self):
        groups = [[MTask(f"n{i}", work=1.0)] for i in range(2)]
        sizes = adjust_groups(groups, lambda t: float("nan"), 8)
        assert sum(sizes) == 8
        assert all(s >= 1 for s in sizes)


class TestGeneratorBoundsVsTopology:
    """fit_to_cores and the generators' ``cores=`` clamp satellite."""

    def test_fit_to_cores_clamps_min_procs(self):
        g = random_dag(30, seed=1, elements=64)
        fitted = fit_to_cores(g, 2)
        assert fitted is g
        for t in fitted:
            assert t.min_procs <= 2
            assert t.max_procs is None or t.max_procs >= t.min_procs

    def test_fit_to_cores_strict_raises_naming_the_task(self):
        g = TaskGraph()
        g.add_task(MTask("wide", work=1e8, min_procs=8))
        with pytest.raises(ValueError, match="task 'wide'.*min_procs=8.*4-core"):
            fit_to_cores(g, 4, strict=True)

    @pytest.mark.parametrize("family", ["chain", "forkjoin", "layered", "random"])
    def test_generators_respect_target_cores(self, family):
        g = synthesize(family, 60, seed=2, cores=4)
        for t in g:
            assert t.min_procs <= 4

    def test_generators_without_cores_unchanged(self):
        # the cores= keyword must not perturb seeded generation
        a = layered_graph(50, seed=7)
        b = layered_graph(50, seed=7)
        assert [t.name for t in a.topological_order()] == [
            t.name for t in b.topological_order()
        ]
        assert [t.work for t in a.topological_order()] == [
            t.work for t in b.topological_order()
        ]


def _trace(plat, entries):
    """Build an ExecutionTrace on ``plat`` from raw entry tuples."""
    trace = ExecutionTrace(plat.machine)
    for name, start, finish, comp, comm, wait in entries:
        core = plat.machine.cores()[0]
        trace.add(
            TraceEntry(
                task=MTask(name, work=1e6),
                start=start,
                finish=finish,
                cores=(core,),
                comp_time=comp,
                comm_time=comm,
                redist_wait=wait,
            )
        )
    return trace


class TestRenderingHardening:
    """Zero-duration and NaN-adjacent slices in Gantt/Perfetto export."""

    def test_gantt_renders_zero_duration_trace(self, plat):
        trace = _trace(plat, [("z", 0.0, 0.0, 0.0, 0.0, 0.0)])
        text = render_trace(trace)
        assert "core" in text

    def test_gantt_renders_nan_polluted_trace(self, plat):
        trace = _trace(
            plat, [("n", float("nan"), float("nan"), float("nan"), 0.0, 0.0)]
        )
        text = render_trace(trace)
        assert "core" in text

    def test_perfetto_zero_duration_slices_stay_valid(self, plat):
        trace = _trace(plat, [("z", 1.0, 1.0, 0.0, 0.0, 0.0)])
        events = execution_trace_events(trace)
        assert validate_trace_events(events) == []

    def test_perfetto_nan_slices_sanitized_not_inverted(self, plat):
        trace = _trace(
            plat,
            [
                ("a", float("nan"), float("nan"), float("nan"), 0.0, float("nan")),
                ("b", 2.0, 1.0, 5.0, 0.0, 0.0),  # inverted + oversized comp
            ],
        )
        events = execution_trace_events(trace)
        assert validate_trace_events(events) == []
        for ev in events:
            if ev.get("ph") == "X":
                assert math.isfinite(ev["ts"]) and math.isfinite(ev["dur"])
                assert ev["dur"] >= 0

    def test_validator_flags_nonfinite_events(self):
        bad = [
            {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": float("nan"), "dur": 1},
            {"ph": "X", "name": "y", "pid": 1, "tid": 1, "ts": 0, "dur": float("inf")},
        ]
        problems = validate_trace_events(bad)
        assert len(problems) == 2
        assert any("non-finite ts" in p for p in problems)
        assert any("non-finite dur" in p for p in problems)


def _registry(tmp_path, makespans):
    """A run registry holding one comparable record per makespan."""
    reg = RunRegistry(tmp_path)
    for i, span in enumerate(makespans):
        reg.append(
            RunRecord(
                program="p" * 16,
                topology="t" * 16,
                options="o" * 16,
                makespan=span,
                timestamp=float(i),
            )
        )
    return reg


class TestTrendExitCodes:
    """The documented ``repro.obs trend`` exit-code contract."""

    def test_empty_registry_exits_2(self, tmp_path, capsys):
        RunRegistry(tmp_path)  # directory without records
        assert obs_main(["trend", "--registry-dir", str(tmp_path)]) == 2
        assert "need at least 2" in capsys.readouterr().err

    def test_single_record_exits_2(self, tmp_path, capsys):
        _registry(tmp_path, [1.0])
        assert obs_main(["trend", "--registry-dir", str(tmp_path)]) == 2

    def test_nan_records_are_skipped_and_reported(self, tmp_path, capsys):
        _registry(tmp_path, [float("nan"), float("nan"), 1.0])
        assert obs_main(["trend", "--registry-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "found 1" in err
        assert "2 record(s) without a finite value" in err

    def test_steady_metric_exits_0(self, tmp_path):
        _registry(tmp_path, [1.0, 1.0, 1.01])
        assert obs_main(["trend", "--registry-dir", str(tmp_path)]) == 0

    def test_drift_exits_1(self, tmp_path):
        _registry(tmp_path, [1.0, 1.0, 10.0])
        assert obs_main(["trend", "--registry-dir", str(tmp_path)]) == 1

    def test_last_zero_is_an_empty_window(self, tmp_path):
        reg = _registry(tmp_path, [1.0, 2.0, 3.0])
        assert reg.history(last=0) == []
        assert (
            obs_main(["trend", "--registry-dir", str(tmp_path), "--last", "0"]) == 2
        )
