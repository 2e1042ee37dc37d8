"""Tests for speculative straggler mitigation: the policy itself, backup
attempts in the discrete-event simulator (idle-core booking, first
finisher wins, trace/metrics/Perfetto/Gantt surfacing), the functional
runtime's accounted backup race, and the bit-identity guarantees when
speculation is off or never fires."""

import itertools
import json

import numpy as np
import pytest

from repro.cluster import chic
from repro.core import (
    AccessMode,
    CostModel,
    DistributionSpec,
    MTask,
    Parameter,
    TaskGraph,
)
from repro.faults import FaultPlan
from repro.mapping import consecutive
from repro.obs import Instrumentation
from repro.pipeline import SchedulingPipeline
from repro.recovery import RunJournal, SpeculationPolicy, parse_speculation_spec
from repro.runtime import run_program
from repro.scheduling.baselines import fixed_group_scheduler
from repro.sim.executor import SimulationOptions


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def task(name, inp=(), out=(), func=None, elements=4):
    params = tuple(
        Parameter(v, AccessMode.IN, elements, dist=DistributionSpec("replic"))
        for v in inp
    ) + tuple(
        Parameter(v, AccessMode.OUT, elements, dist=DistributionSpec("replic"))
        for v in out
    )
    return MTask(name, params=params, func=func)


def chain_graph():
    g = TaskGraph()
    a = g.add_task(task("a", inp=["x"], out=["y"], func=lambda c, v: {"y": v["x"] * 2}))
    b = g.add_task(task("b", inp=["y"], out=["z"], func=lambda c, v: {"z": v["y"] * 2}))
    c = g.add_task(task("c", inp=["z"], out=["w"], func=lambda c, v: {"w": v["z"] * 2}))
    g.connect(a, b)
    g.connect(b, c)
    return g


def wide_graph(width=4, work=1e9):
    """src -> w0..w{width-1} -> sink: one wide layer with idle-core slack
    once the fast siblings finish."""
    g = TaskGraph()
    src = g.add_task(MTask("src", work=5e8))
    sink = g.add_task(MTask("sink", work=5e8))
    for i in range(width):
        t = g.add_task(MTask(f"w{i}", work=work))
        g.add_dependency(src, t)
        g.add_dependency(t, sink)
    return g


def sim_pipeline(platform, groups=4, **options_kw):
    return SchedulingPipeline(
        fixed_group_scheduler(CostModel(platform), groups),
        strategy=consecutive(),
        options=SimulationOptions(**options_kw),
    )


def counting_clock():
    counter = itertools.count()
    return lambda: float(next(counter))


STRAGGLER = FaultPlan(slowdowns={"w1": 4.0})


# ----------------------------------------------------------------------
# SpeculationPolicy
# ----------------------------------------------------------------------
class TestSpeculationPolicy:
    def test_estimate_mode(self):
        p = SpeculationPolicy(factor=1.5)
        assert p.threshold(estimate=2.0) == 3.0
        assert p.threshold(estimate=0.0) is None
        assert p.threshold() is None

    def test_quantile_mode_needs_history(self):
        p = SpeculationPolicy(factor=2.0, quantile=0.5, min_samples=3)
        assert p.threshold(completed=[1.0, 2.0]) is None  # not enough
        assert p.threshold(completed=[1.0, 2.0, 3.0]) == 4.0  # 2 x median
        # quantile mode wins over the estimate once it has history
        assert p.threshold(estimate=100.0, completed=[1.0, 2.0, 3.0]) == 4.0

    def test_min_seconds_floor(self):
        p = SpeculationPolicy(factor=1.5, min_seconds=10.0)
        assert p.threshold(estimate=1.0) == 10.0

    def test_off_never_fires(self):
        assert SpeculationPolicy(enabled=False).threshold(estimate=5.0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            SpeculationPolicy(factor=1.0)
        with pytest.raises(ValueError):
            SpeculationPolicy(quantile=0.0)
        with pytest.raises(ValueError):
            SpeculationPolicy(quantile=1.5)
        with pytest.raises(ValueError):
            SpeculationPolicy(min_samples=0)
        with pytest.raises(ValueError):
            SpeculationPolicy(min_seconds=-1.0)

    def test_parse_spec(self):
        p = parse_speculation_spec("1.5")
        assert p.factor == 1.5 and p.quantile is None
        p = parse_speculation_spec("1.3:0.9")
        assert p.factor == 1.3 and p.quantile == 0.9

    @pytest.mark.parametrize("spec", ["", "x", "1.5:y", "1.5:0.9:3", "0.5", "1.5:2.0"])
    def test_parse_spec_rejects_bad_fields(self, spec):
        with pytest.raises(ValueError) as exc:
            parse_speculation_spec(spec)
        assert "\n" not in str(exc.value)


# ----------------------------------------------------------------------
# simulator speculation
# ----------------------------------------------------------------------
class TestSimulatorSpeculation:
    def test_backup_win_reduces_makespan(self):
        platform = chic().with_cores(32)
        graph = wide_graph()
        slow = sim_pipeline(platform, faults=STRAGGLER).run(graph)
        spec = sim_pipeline(
            platform, faults=STRAGGLER, speculation=SpeculationPolicy(factor=1.5)
        ).run(graph)
        assert spec.makespan < slow.makespan
        e = next(t for t in spec.trace.entries if t.task.name == "w1")
        assert e.speculation == "win"
        assert e.backup_cores and e.backup_start > e.start
        assert e.finish < e.primary_finish
        assert e.speculation_saved > 0
        assert spec.trace.speculation_summary()["wins"] >= 1

    def test_deterministic(self):
        platform = chic().with_cores(32)
        policy = SpeculationPolicy(factor=1.5)
        r1 = sim_pipeline(platform, faults=STRAGGLER, speculation=policy).run(wide_graph())
        r2 = sim_pipeline(platform, faults=STRAGGLER, speculation=policy).run(wide_graph())
        assert r1.makespan == r2.makespan
        assert [
            (e.task.name, e.start, e.finish, e.speculation) for e in r1.trace.entries
        ] == [
            (e.task.name, e.start, e.finish, e.speculation) for e in r2.trace.entries
        ]

    def test_disabled_policy_bit_identical(self):
        platform = chic().with_cores(32)
        base = sim_pipeline(platform, faults=STRAGGLER).run(wide_graph())
        off = sim_pipeline(
            platform, faults=STRAGGLER, speculation=SpeculationPolicy(enabled=False)
        ).run(wide_graph())
        assert [(e.task.name, e.start, e.finish) for e in base.trace.entries] == [
            (e.task.name, e.start, e.finish) for e in off.trace.entries
        ]
        assert base.metrics() == off.metrics()

    def test_clean_run_with_speculation_bit_identical(self):
        platform = chic().with_cores(32)
        base = sim_pipeline(platform).run(wide_graph())
        spec = sim_pipeline(
            platform, speculation=SpeculationPolicy(factor=1.5)
        ).run(wide_graph())
        assert all(e.speculation == "" for e in spec.trace.entries)
        assert [(e.task.name, e.start, e.finish) for e in base.trace.entries] == [
            (e.task.name, e.start, e.finish) for e in spec.trace.entries
        ]
        assert "speculation_wins" not in base.metrics()
        assert "speculation_wins" not in spec.metrics()

    def test_no_backup_without_idle_cores(self):
        # one group: every task owns all cores, nothing is idle at the
        # threshold, so speculation can never launch a backup
        platform = chic().with_cores(32)
        plan = FaultPlan(slowdowns={"w1": 4.0})
        base = sim_pipeline(platform, groups=1, faults=plan).run(wide_graph())
        spec = sim_pipeline(
            platform, groups=1, faults=plan,
            speculation=SpeculationPolicy(factor=1.5),
        ).run(wide_graph())
        assert all(e.speculation == "" for e in spec.trace.entries)
        assert spec.makespan == base.makespan

    def test_metrics_and_analysis_surface_wins(self):
        platform = chic().with_cores(32)
        spec = sim_pipeline(
            platform, faults=STRAGGLER, speculation=SpeculationPolicy(factor=1.5)
        ).run(wide_graph())
        metrics = spec.metrics()
        assert metrics["speculation_wins"] >= 1
        analysis = spec.analysis()
        assert analysis.speculation_wins >= 1
        assert analysis.speculation_saved_seconds > 0
        assert "speculation" in analysis.report()
        assert spec.meta["speculation"] == {"factor": 1.5}

    def test_utilization_charges_backup_cores(self):
        platform = chic().with_cores(32)
        spec = sim_pipeline(
            platform, faults=STRAGGLER, speculation=SpeculationPolicy(factor=1.5)
        ).run(wide_graph())
        e = next(t for t in spec.trace.entries if t.task.name == "w1")
        busy = spec.trace.per_core_busy()
        for core in e.backup_cores:
            assert busy[core] >= e.backup_duration > 0
        assert 0.0 < spec.trace.utilization() <= 1.0

    def test_perfetto_backup_slices(self):
        from repro.obs.perfetto import pipeline_trace

        platform = chic().with_cores(32)
        spec = sim_pipeline(
            platform, faults=STRAGGLER, speculation=SpeculationPolicy(factor=1.5)
        ).run(wide_graph())
        doc = pipeline_trace(spec)
        backups = [e for e in doc["traceEvents"] if e.get("cat") == "speculation"]
        assert backups and all("(backup)" in e["name"] for e in backups)
        assert doc["otherData"]["speculation_summary"]["wins"] >= 1

    def test_gantt_marks_backups(self):
        from repro.obs.gantt import render_trace

        platform = chic().with_cores(32)
        spec = sim_pipeline(
            platform, faults=STRAGGLER, speculation=SpeculationPolicy(factor=1.5)
        ).run(wide_graph())
        text = render_trace(spec.trace)
        assert "+" in text
        assert "[spec win]" in text

    def test_sweep_reduces_straggled_makespan(self):
        from repro.experiments.speculation_sweep import run_speculation_sweep

        result = run_speculation_sweep("1.5", "7:0.5", quick=True)
        straggled = result.get("stragglers [s]").y
        speculated = result.get("speculated [s]").y
        assert all(s < t for s, t in zip(speculated, straggled))
        assert sum(result.get("backup wins").y) >= 1


# ----------------------------------------------------------------------
# runtime speculation (accounted backup race, deterministic via fake clock)
# ----------------------------------------------------------------------
class TestRuntimeSpeculation:
    POLICY = SpeculationPolicy(factor=2.0, quantile=0.5, min_samples=1)
    PLAN = FaultPlan(slowdowns={"b": 10.0})

    def test_backup_wins_and_variables_unchanged(self):
        inputs = {"x": np.arange(4.0)}
        reference = run_program(chain_graph(), inputs)
        obs = Instrumentation(clock=counting_clock())
        res = run_program(
            chain_graph(), inputs, obs=obs,
            faults=self.PLAN, speculation=self.POLICY,
        )
        assert len(res.stats.speculations) == 1
        rec = res.stats.speculations[0]
        # every span costs exactly one fake-clock tick: the primary's
        # effective duration is 1 x 10 (straggler), the backup launches
        # at the threshold 2 x median(history)=2 and takes 1 more tick
        assert rec.task == "b" and rec.win
        assert rec.primary_seconds == 10.0
        assert rec.backup_seconds == 3.0
        assert obs.counter("speculation.wins") == 1
        for name in reference.variables:
            np.testing.assert_array_equal(res.variables[name], reference.variables[name])

    def test_off_policy_records_nothing(self):
        res = run_program(
            chain_graph(), {"x": np.arange(4.0)},
            obs=Instrumentation(clock=counting_clock()),
            faults=self.PLAN, speculation=SpeculationPolicy(enabled=False),
        )
        assert res.stats.speculations == []

    def test_min_samples_gates_quantile_mode(self):
        res = run_program(
            chain_graph(), {"x": np.arange(4.0)},
            obs=Instrumentation(clock=counting_clock()),
            faults=self.PLAN,
            speculation=SpeculationPolicy(factor=2.0, quantile=0.5, min_samples=5),
        )
        assert res.stats.speculations == []

    def test_failing_backup_is_a_loss(self):
        calls = {"b": 0}

        def flaky_backup(ctx, values):
            calls["b"] += 1
            if calls["b"] > 1:  # the primary succeeds, the backup dies
                raise RuntimeError("backup blew up")
            return {"z": values["y"] * 2}

        g = TaskGraph()
        a = g.add_task(task("a", inp=["x"], out=["y"], func=lambda c, v: {"y": v["x"] * 2}))
        b = g.add_task(task("b", inp=["y"], out=["z"], func=flaky_backup))
        g.connect(a, b)
        res = run_program(
            g, {"x": np.arange(4.0)},
            obs=Instrumentation(clock=counting_clock()),
            faults=self.PLAN, speculation=self.POLICY,
        )
        assert len(res.stats.speculations) == 1
        rec = res.stats.speculations[0]
        assert not rec.win and rec.backup_seconds == -1.0
        np.testing.assert_array_equal(res.variables["z"], np.arange(4.0) * 4)

    def test_speculation_journaled(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        with journal:
            run_program(
                chain_graph(), {"x": np.arange(4.0)},
                obs=Instrumentation(clock=counting_clock()),
                faults=self.PLAN, speculation=self.POLICY, journal=journal,
            )
        lines = [json.loads(l) for l in journal.path.read_text().splitlines()]
        specs = [r for r in lines if r["kind"] == "speculation"]
        assert len(specs) == 1
        assert specs[0]["task"] == "b" and specs[0]["win"] is True
