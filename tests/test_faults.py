"""Tests for the fault-tolerance subsystem: deterministic fault plans,
retry policies, runtime retry/timeout/give-up, simulator fault
costing, reschedule-on-core-loss and the fault-free equivalence
guarantee (injection disabled => bit-identical results)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import chic
from repro.core import AccessMode, CostModel, DistributionSpec, MTask, Parameter, TaskGraph
from repro.faults import (
    CoreLoss,
    FaultPlan,
    RetryPolicy,
    parse_faults_spec,
    reschedule_on_core_loss,
)
from repro.mapping import consecutive
from repro.obs import Instrumentation
from repro.obs.cli import flatten_metrics
from repro.ode import MethodConfig, build_ode_program, bruss2d
from repro.pipeline import SchedulingPipeline
from repro.runtime import run_program
from repro.scheduling import LayerBasedScheduler
from repro.sim.executor import SimulationOptions

from tests.test_obs import histogram
from tests.test_ode_solvers import linear_test_problem
from tests.test_schedule_scale import adjust_groups


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
    """a -> b -> c, each doubling its input."""
    g = TaskGraph()
    a = g.add_task(task("a", inp=["x"], out=["y"], func=lambda c, v: {"y": v["x"] * 2}))
    b = g.add_task(task("b", inp=["y"], out=["z"], func=lambda c, v: {"z": v["y"] * 2}))
    c = g.add_task(task("c", inp=["z"], out=["w"], func=lambda c, v: {"w": v["z"] * 2}))
    g.connect(a, b)
    g.connect(b, c)
    return g


def diamond_mgraph():
    """M-task graph with work, for pipeline/simulator tests."""
    g = TaskGraph()
    a = g.add_task(MTask("a", work=1e9))
    b = g.add_task(MTask("b", work=2e9))
    c = g.add_task(MTask("c", work=2e9))
    d = g.add_task(MTask("d", work=1e9))
    g.add_dependency(a, b)
    g.add_dependency(a, c)
    g.add_dependency(b, d)
    g.add_dependency(c, d)
    return g


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_disabled_by_default(self):
        assert not FaultPlan().enabled
        assert FaultPlan().failures_of("t") == 0
        assert FaultPlan().slowdown("t") == 1.0

    def test_deterministic_across_instances(self):
        p1 = FaultPlan(seed=7, failure_rate=0.5, slowdown_rate=0.5)
        p2 = FaultPlan(seed=7, failure_rate=0.5, slowdown_rate=0.5)
        names = [f"task{i}" for i in range(50)]
        assert [p1.failures_of(n) for n in names] == [p2.failures_of(n) for n in names]
        assert [p1.slowdown(n) for n in names] == [p2.slowdown(n) for n in names]

    def test_order_independent(self):
        p = FaultPlan(seed=3, failure_rate=0.5)
        forward = {n: p.failures_of(n) for n in ("a", "b", "c")}
        backward = {n: p.failures_of(n) for n in ("c", "b", "a")}
        assert forward == backward

    def test_seed_changes_decisions(self):
        names = [f"task{i}" for i in range(100)]
        a = [FaultPlan(seed=1, failure_rate=0.5).failures_of(n) for n in names]
        b = [FaultPlan(seed=2, failure_rate=0.5).failures_of(n) for n in names]
        assert a != b

    def test_rate_roughly_respected(self):
        p = FaultPlan(seed=0, failure_rate=0.3)
        hits = sum(1 for i in range(500) if p.failures_of(f"t{i}") > 0)
        assert 100 < hits < 200  # ~150 expected

    def test_overrides_win(self):
        p = FaultPlan(seed=0, failure_rate=0.0, task_faults={"a": 2}, slowdowns={"b": 3.0})
        assert p.failures_of("a") == 2
        assert p.fails("a", 0) and p.fails("a", 1) and not p.fails("a", 2)
        assert p.slowdown("b") == 3.0
        assert p.enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(failure_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(max_failures=0)
        with pytest.raises(ValueError):
            FaultPlan(slowdowns={"a": 0.5})
        with pytest.raises(ValueError):
            CoreLoss(after_layer=-1)
        with pytest.raises(ValueError):
            CoreLoss(after_layer=0, nodes=0)

    def test_parse_spec(self):
        p = parse_faults_spec("7:0.2")
        assert p.seed == 7 and p.failure_rate == 0.2 and p.core_loss is None
        p = parse_faults_spec("7:0.2:1:2")
        assert p.core_loss == CoreLoss(after_layer=1, nodes=2)
        with pytest.raises(ValueError):
            parse_faults_spec("7")
        with pytest.raises(ValueError):
            parse_faults_spec("x:0.2")

    def test_to_dict_roundtrips_core_loss(self):
        p = parse_faults_spec("7:0.2:1:2")
        d = p.to_dict()
        assert d["core_loss"] == {"after_layer": 1, "nodes": 2}

    @pytest.mark.parametrize(
        "spec, field",
        [
            ("7:1.5", "rate"),  # out of range
            ("7:-0.1", "rate"),
            ("7:nope", "rate"),
            ("x:0.2", "seed"),
            ("2.5:0.2", "seed"),  # non-integer seed
            ("7:0.2:one:2", "layer"),
            ("7:0.2:1.5:2", "layer"),
            ("7:0.2:1:two", "nodes"),
            ("7:0.2:-1:2", "layer"),  # negative layer
            ("7:0.2:1:0", "nodes"),  # zero nodes
        ],
    )
    def test_parse_spec_names_bad_field(self, spec, field):
        with pytest.raises(ValueError) as exc:
            parse_faults_spec(spec)
        message = str(exc.value)
        assert field in message and spec in message
        assert "\n" not in message  # one-line, CLI-friendly

    @pytest.mark.parametrize("spec", ["7", "7:0.2:1", "7:0.2:1:2:junk", ""])
    def test_parse_spec_rejects_wrong_shape(self, spec):
        with pytest.raises(ValueError, match="SEED:RATE"):
            parse_faults_spec(spec)


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_delay_grows_and_is_deterministic(self):
        r = RetryPolicy(backoff=0.01, backoff_factor=2.0, jitter=0.1, seed=5)
        d0, d1, d2 = (r.delay("t", a) for a in range(3))
        assert d0 < d1 < d2
        r2 = RetryPolicy(backoff=0.01, backoff_factor=2.0, jitter=0.1, seed=5)
        assert r2.delay("t", 1) == d1

    def test_jitter_within_bounds(self):
        r = RetryPolicy(backoff=0.01, backoff_factor=2.0, jitter=0.2, seed=0)
        for a in range(4):
            base = 0.01 * 2.0 ** a
            assert base * 0.8 <= r.delay("t", a) <= base * 1.2

    def test_zero_jitter_exact(self):
        r = RetryPolicy(backoff=0.01, backoff_factor=2.0, jitter=0.0)
        assert r.delay("t", 2) == pytest.approx(0.04)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)

    def test_max_delay_caps_growth_and_overflow(self):
        r = RetryPolicy(backoff=1.0, backoff_factor=10.0, jitter=0.0, max_delay=5.0)
        assert r.delay("t", 0) == 1.0
        assert r.delay("t", 1) == 5.0  # 10.0 clamped
        # attempt numbers where backoff_factor**attempt overflows float
        assert r.delay("t", 10_000) == 5.0
        assert math.isfinite(r.delay("t", 10_000))
        # jitter never pushes a delay past the cap either
        j = RetryPolicy(backoff=1.0, backoff_factor=10.0, jitter=0.3, max_delay=5.0)
        for a in (1, 2, 50, 10_000):
            assert j.delay("t", a) <= 5.0

    def test_max_delay_validation(self):
        with pytest.raises(ValueError, match="max_delay"):
            RetryPolicy(max_delay=0.0)
        with pytest.raises(ValueError, match="max_delay"):
            RetryPolicy(max_delay=-1.0)
        with pytest.raises(ValueError, match="max_delay"):
            RetryPolicy(max_delay=math.inf)


# ----------------------------------------------------------------------
# satellite: FailureRecord.to_dict backoff emission
# ----------------------------------------------------------------------
class TestFailureRecordDict:
    def test_backoff_emitted_whenever_retries_happened(self):
        from repro.faults import FailureRecord

        # retried with zero accumulated backoff: field still present,
        # distinguishable from "absent"
        rec = FailureRecord("t", attempts=3, backoff_seconds=0.0)
        assert rec.to_dict()["backoff_seconds"] == 0.0
        rec = FailureRecord("t", attempts=2, backoff_seconds=0.5)
        assert rec.to_dict()["backoff_seconds"] == 0.5

    def test_single_attempt_record_refused(self):
        """A record is a task that retried and recovered: one attempt is
        no record, and every record carries ``backoff_seconds``."""
        from repro.faults import FailureRecord

        for attempts in (1, 0, -1):
            with pytest.raises(ValueError, match="at least two attempts"):
                FailureRecord("t", attempts=attempts)
        assert FailureRecord("t", attempts=2).to_dict() == {
            "task": "t",
            "attempts": 2,
            "backoff_seconds": 0.0,
        }


# ----------------------------------------------------------------------
# runtime executor under injection
# ----------------------------------------------------------------------
class TestRuntimeFaults:
    def test_retry_recovers(self):
        plan = FaultPlan(task_faults={"b": 2})
        res = run_program(
            chain_graph(), {"x": np.arange(4.0)}, faults=plan, retry=RetryPolicy()
        )
        np.testing.assert_array_equal(res["w"], np.arange(4.0) * 8)
        recs = res.failures
        assert len(recs) == 1 and recs[0].task == "b" and recs[0].attempts == 3
        assert res.stats.retries == 2
        assert res.stats.backoff_seconds > 0

    def test_gave_up_raises_by_default(self):
        plan = FaultPlan(task_faults={"b": 99})
        with pytest.raises(RuntimeError, match="task 'b' failed after 3 attempt"):
            run_program(
                chain_graph(),
                {"x": np.arange(4.0)},
                faults=plan,
                retry=RetryPolicy(max_retries=2),
            )

    def test_timeout_via_injected_slowdown(self):
        # a huge straggler factor makes any measurable duration exceed the
        # timeout deterministically
        plan = FaultPlan(slowdowns={"b": 1e12})
        obs = Instrumentation()
        with pytest.raises(
            RuntimeError, match="task 'b' failed after 2 attempt.*exceeds timeout"
        ):
            run_program(
                chain_graph(),
                {"x": np.arange(4.0)},
                obs=obs,
                faults=plan,
                retry=RetryPolicy(max_retries=1, timeout=1.0),
            )
        assert obs.counter("faults.timeouts") == 2
        assert obs.counter("faults.gave_up") == 1

    def test_injection_without_policy_gets_no_retries(self):
        plan = FaultPlan(task_faults={"b": 1})
        obs = Instrumentation()
        # one attempt only: the single injected failure exhausts the task
        with pytest.raises(RuntimeError, match="task 'b' failed after 1 attempt"):
            run_program(chain_graph(), {"x": np.arange(4.0)}, obs=obs, faults=plan)
        assert obs.counter("faults.injected") == 1
        assert obs.counter("faults.gave_up") == 1
        assert obs.counter("faults.retries") == 0

    def test_obs_metrics_emitted(self):
        obs = Instrumentation()
        plan = FaultPlan(task_faults={"b": 1})
        run_program(
            chain_graph(),
            {"x": np.arange(4.0)},
            obs=obs,
            faults=plan,
            retry=RetryPolicy(),
        )
        assert obs.counter("faults.retries") == 1
        assert obs.counter("faults.injected") == 1
        assert histogram(obs, "task_retries").count == 1


# ----------------------------------------------------------------------
# fault-free equivalence (the headline bugfix guarantee)
# ----------------------------------------------------------------------
class TestFaultFreeEquivalence:
    def test_runtime_disabled_plan_bit_identical(self):
        """A disabled plan and a retry policy must not perturb results."""
        g1, g2 = chain_graph(), chain_graph()
        base = run_program(g1, {"x": np.arange(4.0)})
        guarded = run_program(
            g2,
            {"x": np.arange(4.0)},
            faults=FaultPlan(),
            retry=RetryPolicy(),
        )
        assert set(base.variables) == set(guarded.variables)
        for k in base.variables:
            np.testing.assert_array_equal(base.variables[k], guarded.variables[k])
        assert base.stats.collective_counts() == guarded.stats.collective_counts()
        assert guarded.failures == []

    def test_irk_program_bit_identical(self):
        """Golden IRK functional run: same variables and collective
        counts with injection disabled."""
        lin = linear_test_problem(6)
        cfg = MethodConfig("irk", K=3, m=5, t_end=0.2, h=0.05)
        result = build_ode_program(lin, cfg, functional=True)
        loop = result.composed_nodes()[0]
        body = result.body_of(loop)
        inputs = {"eta": lin.y0}
        for p in loop.params:
            if p.mode.reads and p.name not in inputs:
                inputs[p.name] = np.zeros(p.elements)
        upper = run_program(result.graph, inputs)
        store = dict(upper.variables)
        base = run_program(body, store)
        guarded = run_program(
            body, store, faults=FaultPlan(), retry=RetryPolicy()
        )
        for k in base.variables:
            np.testing.assert_array_equal(base.variables[k], guarded.variables[k])
        assert base.stats.collective_counts() == guarded.stats.collective_counts()

    def test_pipeline_metrics_identical_with_disabled_plan(self):
        platform = chic().with_cores(16)
        graph1, graph2 = diamond_mgraph(), diamond_mgraph()
        base = SchedulingPipeline(
            LayerBasedScheduler(CostModel(platform)), strategy=consecutive()
        ).run(graph1)
        guarded = SchedulingPipeline(
            LayerBasedScheduler(CostModel(platform)),
            strategy=consecutive(),
            options=SimulationOptions(faults=FaultPlan()),
        ).run(graph2)
        assert flatten_metrics(base.metrics()) == flatten_metrics(guarded.metrics())
        assert "faults" not in guarded.meta
        assert guarded.reschedule is None


# ----------------------------------------------------------------------
# simulator under injection
# ----------------------------------------------------------------------
class TestSimulatorFaults:
    def _run(self, options=None):
        platform = chic().with_cores(16)
        pipe = SchedulingPipeline(
            LayerBasedScheduler(CostModel(platform)),
            strategy=consecutive(),
            options=options or SimulationOptions(),
        )
        return pipe.run(diamond_mgraph())

    def test_retries_charged_in_trace(self):
        plan = FaultPlan(task_faults={"b": 2})
        faulted = self._run(SimulationOptions(faults=plan))
        base = self._run()
        eb = next(e for e in faulted.trace.entries if e.task.name == "b")
        assert eb.retries == 2
        assert eb.fault_overhead > 0
        assert faulted.makespan > base.makespan
        clean = [e for e in faulted.trace.entries if e.task.name != "b"]
        assert all(e.retries == 0 and e.fault_overhead == 0.0 for e in clean)

    def test_slowdown_scales_entry(self):
        plan = FaultPlan(slowdowns={"b": 3.0})
        faulted = self._run(SimulationOptions(faults=plan))
        base = self._run()
        fb = next(e for e in faulted.trace.entries if e.task.name == "b")
        bb = next(e for e in base.trace.entries if e.task.name == "b")
        assert fb.comp_time == pytest.approx(3.0 * bb.comp_time)

    def test_retry_cap_respected(self):
        plan = FaultPlan(task_faults={"b": 99})
        res = self._run(
            SimulationOptions(faults=plan, retry=RetryPolicy(max_retries=2))
        )
        eb = next(e for e in res.trace.entries if e.task.name == "b")
        assert eb.retries == 2

    def test_deterministic_makespan(self):
        plan = FaultPlan(seed=11, failure_rate=0.6, slowdown_rate=0.4)
        m1 = self._run(SimulationOptions(faults=plan)).makespan
        m2 = self._run(SimulationOptions(faults=plan)).makespan
        assert m1 == m2

    def test_analysis_and_metrics_pick_up_faults(self):
        plan = FaultPlan(task_faults={"b": 2})
        res = self._run(SimulationOptions(faults=plan))
        metrics = res.metrics()
        assert metrics["task_retries_total"] == 2.0
        assert metrics["fault_overhead_seconds"] > 0
        assert "fault injection" in res.analysis().report()


# ----------------------------------------------------------------------
# reschedule on core loss
# ----------------------------------------------------------------------
class TestRescheduleOnCoreLoss:
    def _pipeline(self, platform, faults=None):
        return SchedulingPipeline(
            LayerBasedScheduler(CostModel(platform)),
            strategy=consecutive(),
            options=SimulationOptions(faults=faults),
        )

    def test_pipeline_reschedules(self):
        platform = chic().with_cores(32)
        plan = FaultPlan(core_loss=CoreLoss(after_layer=1, nodes=2))
        base = self._pipeline(platform).run(diamond_mgraph())
        res = self._pipeline(platform, faults=plan).run(diamond_mgraph())
        assert res.reschedule is not None and res.reschedule.rescheduled
        per_node = platform.machine.cores_per_node(0)
        assert (
            res.reschedule.reduced_platform.total_cores
            == 32 - 2 * per_node
        )
        assert res.reschedule.cut == 1
        assert res.makespan >= base.makespan
        assert res.meta["reschedule"]["lost_nodes"] == 2
        assert res.metrics()["degraded_makespan"] == res.makespan

    def test_deterministic_across_invocations(self):
        platform = chic().with_cores(32)
        plan = FaultPlan(
            seed=7,
            failure_rate=0.4,
            core_loss=CoreLoss(after_layer=1, nodes=1),
        )
        r1 = self._pipeline(platform, faults=plan).run(diamond_mgraph())
        r2 = self._pipeline(platform, faults=plan).run(diamond_mgraph())
        assert r1.makespan == r2.makespan
        retries1 = [(e.task.name, e.retries) for e in r1.trace.entries]
        retries2 = [(e.task.name, e.retries) for e in r2.trace.entries]
        assert retries1 == retries2

    def test_loss_after_last_layer_is_noop(self):
        platform = chic().with_cores(32)
        plan = FaultPlan(core_loss=CoreLoss(after_layer=99, nodes=1))
        base = self._pipeline(platform).run(diamond_mgraph())
        res = self._pipeline(platform, faults=plan).run(diamond_mgraph())
        assert res.reschedule is not None
        assert not res.reschedule.rescheduled
        assert res.makespan == base.makespan

    def test_losing_all_nodes_raises(self):
        platform = chic().with_cores(32)
        base = self._pipeline(platform).run(diamond_mgraph())
        loss = CoreLoss(after_layer=1, nodes=platform.machine.num_nodes)
        with pytest.raises(ValueError, match="node"):
            reschedule_on_core_loss(
                base.graph,
                base.scheduling.layered,
                base.trace,
                platform,
                consecutive(),
                loss,
                LayerBasedScheduler(CostModel(platform)),
            )

    def test_loss_before_first_layer_reschedules_everything(self):
        platform = chic().with_cores(32)
        plan = FaultPlan(core_loss=CoreLoss(after_layer=0, nodes=1))
        res = self._pipeline(platform, faults=plan).run(diamond_mgraph())
        assert res.reschedule is not None and res.reschedule.rescheduled
        assert res.reschedule.cut == 0
        assert res.reschedule.prefix_makespan == 0.0
        # every task re-ran on the reduced platform
        assert {e.task.name for e in res.trace.entries} == {"a", "b", "c", "d"}
        per_node = platform.machine.cores_per_node(0)
        assert res.reschedule.reduced_platform.total_cores == 32 - per_node

    def test_loss_of_all_but_one_node_still_completes(self):
        platform = chic().with_cores(32)
        nodes = platform.machine.num_nodes
        plan = FaultPlan(core_loss=CoreLoss(after_layer=1, nodes=nodes - 1))
        base = self._pipeline(platform).run(diamond_mgraph())
        res = self._pipeline(platform, faults=plan).run(diamond_mgraph())
        assert res.reschedule is not None and res.reschedule.rescheduled
        per_node = platform.machine.cores_per_node(0)
        assert res.reschedule.reduced_platform.total_cores == per_node
        assert {e.task.name for e in res.trace.entries} == {"a", "b", "c", "d"}
        assert res.makespan >= base.makespan

    def test_losing_more_than_available_raises_cleanly(self):
        platform = chic().with_cores(32)
        base = self._pipeline(platform).run(diamond_mgraph())
        loss = CoreLoss(after_layer=1, nodes=platform.machine.num_nodes + 3)
        with pytest.raises(ValueError, match="nothing left"):
            reschedule_on_core_loss(
                base.graph,
                base.scheduling.layered,
                base.trace,
                platform,
                consecutive(),
                loss,
                LayerBasedScheduler(CostModel(platform)),
            )

    def test_trace_prefix_preserved(self):
        platform = chic().with_cores(32)
        plan = FaultPlan(core_loss=CoreLoss(after_layer=1, nodes=1))
        base = self._pipeline(platform).run(diamond_mgraph())
        res = self._pipeline(platform, faults=plan).run(diamond_mgraph())
        base_a = next(e for e in base.trace.entries if e.task.name == "a")
        res_a = next(e for e in res.trace.entries if e.task.name == "a")
        assert res_a.start == base_a.start and res_a.finish == base_a.finish
        # suffix tasks start no earlier than the prefix finished
        for e in res.trace.entries:
            if e.task.name != "a":
                assert e.start >= base_a.finish


# ----------------------------------------------------------------------
# satellite: adjust_group_sizes largest-remainder apportionment
# ----------------------------------------------------------------------
class TestAdjustGroupSizesProperty:
    @given(
        works=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
        extra=st.integers(min_value=0, max_value=120),
    )
    @settings(max_examples=200, deadline=None)
    def test_sizes_sum_and_floors(self, works, extra):
        groups = [[MTask(f"t{i}", work=w)] for i, w in enumerate(works)]
        total = len(groups) + extra
        sizes = adjust_groups(groups, lambda t: t.work, total)
        assert sum(sizes) == total
        assert all(s >= 1 for s in sizes)

    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                st.integers(min_value=1, max_value=4),
            ),
            min_size=1,
            max_size=6,
        ),
        extra=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_min_procs_respected(self, data, extra):
        groups = [
            [MTask(f"t{i}", work=w, min_procs=mp)] for i, (w, mp) in enumerate(data)
        ]
        total = sum(mp for _, mp in data) + extra
        sizes = adjust_groups(groups, lambda t: t.work, total)
        assert sum(sizes) == total
        for s, (_, mp) in zip(sizes, data):
            assert s >= mp

    def test_half_ideals_not_bankers_rounded(self):
        # ideals [2.5, 2.5, 5.0] on 10 cores: banker's rounding gave
        # [2, 2, 5] = 9 cores; largest remainder hands the leftover out
        groups = [
            [MTask("a", work=1.0)],
            [MTask("b", work=1.0)],
            [MTask("c", work=2.0)],
        ]
        sizes = adjust_groups(groups, lambda t: t.work, 10)
        assert sum(sizes) == 10
        assert sorted(sizes) == [2, 3, 5]


# ----------------------------------------------------------------------
# satellite: g-search drops empty LPT groups (narrow layers)
# ----------------------------------------------------------------------
class TestEmptyGroupRegression:
    def test_narrow_layer_uses_all_cores(self):
        """One task with work and two zero-work tasks: a forced g=3 LPT
        assignment leaves groups empty; their cores must widen the real
        groups instead of idling."""
        cost = CostModel(chic().with_cores(8))
        sched = LayerBasedScheduler(
            cost, adjust=False, candidate_groups=[3], contract=False
        )
        g = TaskGraph()
        g.add_task(MTask("a", work=1e9))
        g.add_task(MTask("b", work=0.0))
        g.add_task(MTask("c", work=0.0))
        obs = Instrumentation()
        result = sched.schedule(g, obs=obs)
        layer = result.layered.layers[0]
        # zero-work tasks LPT-pack with 'a' into one group; the two empty
        # groups are dropped and all 8 cores serve the single real group
        assert sum(len(grp) for grp in layer.groups) == 3
        assert sum(layer.group_sizes) == 8
        assert all(grp for grp in layer.groups)
        assert obs.counter("gsearch.empty_groups") > 0


# ----------------------------------------------------------------------
# satellite: empty-histogram min/max + diff gate
# ----------------------------------------------------------------------
class TestHistogramNaNSkipped:
    def test_flatten_skips_nan(self):
        flat = flatten_metrics({"metrics": {"ok": 1.0, "bad": math.nan}})
        assert flat == {"ok": 1.0}


# ----------------------------------------------------------------------
# experiments sweep
# ----------------------------------------------------------------------
class TestFaultsSweep:
    def test_sweep_runs_and_degrades(self):
        from repro.experiments.faults_sweep import run_faults_sweep

        res = run_faults_sweep("7:0.3:1:2", quick=True)
        clean = res.get("fault-free [s]").y
        degraded = res.get("degraded [s]").y
        assert len(clean) == len(res.x) == 5
        assert all(d >= c for c, d in zip(clean, degraded))
        assert any(r > 0 for r in res.get("retries").y)
        # deterministic: a second run reproduces the table exactly
        res2 = run_faults_sweep("7:0.3:1:2", quick=True)
        assert degraded == res2.get("degraded [s]").y
